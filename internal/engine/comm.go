package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// tagSplit is the engine-reserved tag for the Split collective handshake.
const tagSplit = 0x7F10

// cancelSignal carries a bound context's cancellation into the engine's
// blocking operations. The zero value (nil done channel) never fires —
// receiving from a nil channel blocks forever, so unbound communicators
// pay nothing in the selects, and a nil check (closed) at operation entry.
type cancelSignal struct {
	done  <-chan struct{}
	cause func() error // non-nil whenever done is
}

// fire aborts the world with the context's cause. MPI collectives leave
// every participant in an undefined state when one rank bails out
// mid-protocol, so a fired context unwinds the whole world — every
// blocked operation on every rank returns, no goroutine is left waiting.
func (cs cancelSignal) fire(w *World) error {
	w.abort(fmt.Errorf("engine: context canceled: %w", cs.cause()))
	return w.abortError()
}

// fired reports (and acts on) an already-canceled context at operation
// entry, so a rank that never blocks still observes cancellation at its
// next communication call.
func (cs cancelSignal) fired(w *World) error {
	if closed(cs.done) {
		return cs.fire(w)
	}
	return nil
}

// closed reports whether the signal channel ch has fired. A nil channel
// never does, and is told apart without entering the select: that is all
// an unbound cancelSignal costs an operation.
func closed(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// enter is every operation's preamble: nothing starts in an aborted
// world or under a context that has already been cancelled.
func (w *World) enter(cnl cancelSignal) error {
	if w.isAborted() {
		return w.abortError()
	}
	return cnl.fired(w)
}

// comm implements mpi.Comm over a World.
type comm struct {
	w       *World
	ctx     int64
	members []int // comm rank -> world rank
	rank    int   // my comm rank
	topo    *topology.Map
	cancel  cancelSignal
	rec     *metrics.TrafficRow // nil unless the traffic is being recorded
}

var _ mpi.Comm = (*comm)(nil)

// NextTagStream advances this rank's collective tag stream for the
// communicator's context and returns the new stream id. Collectives
// call it once on entry (all ranks in the same order, per the MPI
// collective ordering rule), after which every reserved-block tag the
// operation sends or receives is transparently offset into that stream
// by streamTag — so two collectives in flight on one communicator can
// never match each other's messages, even though both were written
// against the same fixed phase-tag constants.
func (c *comm) NextTagStream() int {
	s := c.w.eps[c.worldRank()].nextStream(c.ctx)
	c.w.metrics.Max(c.worldRank(), metrics.TagStreamHighWater, int64(s))
	return s
}

// SpanRing exposes this rank's operation-span ring (nil when the
// world's Metrics has spans disabled).
func (c *comm) SpanRing() *metrics.SpanRing {
	return c.w.metrics.Ring(c.worldRank())
}

// WithTraffic returns a view of this communicator, and of the views
// WithContext and Split make from it, that records into row every send
// that succeeds (under the caller's tag, before streamTag) and every
// receive that completes.
func (c *comm) WithTraffic(row *metrics.TrafficRow) mpi.Comm {
	cc := *c
	cc.rec = row
	return &cc
}

// sent records a successful n-byte send to rank to (a no-op unrecorded).
func (c *comm) sent(to, tag, n int) {
	if c.rec != nil {
		c.rec.Sent(tag, n, c.topo.SameNode(c.rank, to))
	}
}

// streamTag maps a reserved-block collective tag onto the rank's
// current stream for this context (user tags and wildcards pass through
// unchanged). Both ends of a transfer translate with their own rank's
// counter; counters advance only at collective entry, and each rank
// issues all of collective N's operations before entering collective
// N+1, so sender and receiver always agree on the stream of the
// operation they are jointly executing.
func (c *comm) streamTag(tag int) int {
	if tag < mpi.CollTagBase || tag >= mpi.CollTagBase+mpi.TagStreamStride {
		return tag
	}
	return mpi.StreamTag(tag, c.w.eps[c.worldRank()].stream(c.ctx))
}

// WithContext returns a view of this communicator whose blocking
// operations additionally observe ctx. A fired context aborts the world
// (see mpi.Comm's WithContext for why), so the returned errors wrap both
// mpi.ErrAborted and the context's cause. Binding is a cheap struct
// copy; per-call binding is fine.
func (c *comm) WithContext(ctx context.Context) mpi.Comm {
	cc := *c
	if ctx == nil || ctx.Done() == nil {
		cc.cancel = cancelSignal{}
		return &cc
	}
	cc.cancel = cancelSignal{
		done:  ctx.Done(),
		cause: func() error { return context.Cause(ctx) },
	}
	return &cc
}

func (c *comm) Rank() int                { return c.rank }
func (c *comm) Size() int                { return len(c.members) }
func (c *comm) Topology() *topology.Map  { return c.topo }
func (c *comm) worldRank() int           { return c.members[c.rank] }
func (c *comm) worldRankOf(rank int) int { return c.members[rank] }

func (c *comm) Send(buf []byte, to, tag int) error {
	if err := mpi.CheckPeer(to, len(c.members), false); err != nil {
		return fmt.Errorf("engine: send: %w", err)
	}
	if err := mpi.CheckTag(tag, false); err != nil {
		return fmt.Errorf("engine: send: %w", err)
	}
	if to == c.rank {
		return fmt.Errorf("engine: send: %w: self-send unsupported (deadlocks a blocking rank)", mpi.ErrRank)
	}
	// isend + Wait: a send the receiver neither matched nor buffered
	// blocks as a zero-copy envelope until the receiver takes it.
	var r request
	c.w.isend(&r, c.ctx, c.rank, c.worldRank(), c.worldRankOf(to), buf, c.streamTag(tag), c.cancel)
	if _, err := r.Wait(); err != nil {
		return err
	}
	c.sent(to, tag, len(buf))
	return nil
}

func (c *comm) Recv(buf []byte, from, tag int) (mpi.Status, error) {
	if err := mpi.CheckPeer(from, len(c.members), true); err != nil {
		return mpi.Status{}, fmt.Errorf("engine: recv: %w", err)
	}
	if err := mpi.CheckTag(tag, true); err != nil {
		return mpi.Status{}, fmt.Errorf("engine: recv: %w", err)
	}
	var r request // irecv + Wait
	c.w.irecv(&r, c.ctx, c.worldRank(), buf, from, c.streamTag(tag), c.cancel)
	r.rec = c.rec
	return r.Wait()
}

func (c *comm) Sendrecv(sendBuf []byte, to, sendTag int, recvBuf []byte, from, recvTag int) (mpi.Status, error) {
	// Validate both halves up front so a bad argument cannot leave the
	// other half blocked.
	if err := mpi.CheckPeer(to, len(c.members), false); err != nil {
		return mpi.Status{}, fmt.Errorf("engine: sendrecv: %w", err)
	}
	if err := mpi.CheckTag(sendTag, false); err != nil {
		return mpi.Status{}, fmt.Errorf("engine: sendrecv: %w", err)
	}
	if err := mpi.CheckPeer(from, len(c.members), true); err != nil {
		return mpi.Status{}, fmt.Errorf("engine: sendrecv: %w", err)
	}
	if err := mpi.CheckTag(recvTag, true); err != nil {
		return mpi.Status{}, fmt.Errorf("engine: sendrecv: %w", err)
	}
	if to == c.rank || from == c.rank {
		return mpi.Status{}, fmt.Errorf("engine: sendrecv: %w: self transfer unsupported", mpi.ErrRank)
	}

	// Post the receive first (the peer's send can then complete against
	// it), start the send, and wait for both — the calls Send and Recv
	// are made of, so a ring step costs the same whichever it is. Both
	// requests live in this frame.
	var rreq, sreq request
	c.w.irecv(&rreq, c.ctx, c.worldRank(), recvBuf, from, c.streamTag(recvTag), c.cancel)
	c.w.isend(&sreq, c.ctx, c.rank, c.worldRank(), c.worldRankOf(to), sendBuf, c.streamTag(sendTag), c.cancel)
	_, serr := sreq.Wait()
	st, rerr := rreq.Wait()
	if rerr != nil {
		return st, rerr
	}
	if serr == nil && c.rec != nil {
		c.rec.Sent(sendTag, len(sendBuf), c.topo.SameNode(c.rank, to))
		c.rec.Recvs++
	}
	return st, serr
}

// Prepost posts a receive as Recv does, into a request the caller owns,
// and leaves the Wait to the caller. A completed request of this engine
// is re-armed in place (the engine keeps no reference to a request once
// it has completed); anything else is replaced by a fresh one. It
// declines a source the transport wires: the transport already lands a
// message in a receive posted at its op (Claim), and posting wired
// receives early measured only more memory (lmsg-udp-np8 peak RSS
// 33 → 42 MB, p50 unchanged).
func (c *comm) Prepost(req mpi.Request, buf []byte, from, tag int) (mpi.Request, bool) {
	if from < 0 || from >= len(c.members) || from == c.rank || mpi.CheckTag(tag, false) != nil {
		return req, false
	}
	if c.w.wired && c.w.trans.Wire(c.worldRankOf(from)) {
		return req, false
	}
	r, ok := req.(*request)
	if !ok || !r.complete {
		r = new(request)
	}
	*r = request{}
	c.w.irecv(r, c.ctx, c.worldRank(), buf, from, c.streamTag(tag), c.cancel)
	r.rec = c.rec
	return r, true
}

// Split partitions the communicator by color, ordering each new
// communicator by (key, old rank). It is collective: rank 0 gathers all
// (color, key) pairs, forms the groups, allocates a fresh context id per
// group, and scatters each member its new communicator description.
func (c *comm) Split(color, key int) (mpi.Comm, error) {
	if color < 0 && color != mpi.Undefined {
		return nil, fmt.Errorf("engine: split: negative color %d (use mpi.Undefined to opt out)", color)
	}
	p := len(c.members)
	h := c.WithTraffic(nil) // the handshake is the engine's traffic, not the program's

	if c.rank == 0 {
		colors := make([]int, p)
		keys := make([]int, p)
		colors[0], keys[0] = color, key
		buf := make([]byte, 16)
		for r := 1; r < p; r++ {
			if _, err := h.Recv(buf, r, tagSplit); err != nil {
				return nil, fmt.Errorf("engine: split gather from %d: %w", r, err)
			}
			vals := decodeInts(buf, 2)
			colors[r], keys[r] = vals[0], vals[1]
		}
		replies, err := c.buildSplitGroups(colors, keys)
		if err != nil {
			return nil, err
		}
		for r := 1; r < p; r++ {
			if err := h.Send(replies[r], r, tagSplit); err != nil {
				return nil, fmt.Errorf("engine: split scatter to %d: %w", r, err)
			}
		}
		return c.commFromReply(replies[0])
	}

	if err := h.Send(encodeInts(color, key), 0, tagSplit); err != nil {
		return nil, fmt.Errorf("engine: split send: %w", err)
	}
	reply := make([]byte, (3+p)*8)
	st, err := h.Recv(reply, 0, tagSplit)
	if err != nil {
		return nil, fmt.Errorf("engine: split recv: %w", err)
	}
	return c.commFromReply(reply[:st.Count])
}

// buildSplitGroups computes, on rank 0, each rank's reply: the encoded
// (ctx, newRank, size, worldMembers...) of its new communicator, or
// (0, 0, 0) for Undefined colors.
func (c *comm) buildSplitGroups(colors, keys []int) ([][]byte, error) {
	p := len(c.members)
	type member struct{ key, oldRank int }
	groups := map[int][]member{}
	for r := 0; r < p; r++ {
		if colors[r] == mpi.Undefined {
			continue
		}
		groups[colors[r]] = append(groups[colors[r]], member{keys[r], r})
	}
	// Deterministic context allocation: ascending color order.
	colorOrder := make([]int, 0, len(groups))
	for col := range groups {
		colorOrder = append(colorOrder, col)
	}
	sort.Ints(colorOrder)

	replies := make([][]byte, p)
	for r := range replies {
		replies[r] = encodeInts(0, 0, 0) // default: Undefined -> nil comm
	}
	for _, col := range colorOrder {
		ms := groups[col]
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].key != ms[j].key {
				return ms[i].key < ms[j].key
			}
			return ms[i].oldRank < ms[j].oldRank
		})
		ctx := c.w.ctxSeq.Add(1)
		worldMembers := make([]int, len(ms))
		for i, m := range ms {
			worldMembers[i] = c.members[m.oldRank]
		}
		for newRank, m := range ms {
			vals := append([]int{int(ctx), newRank, len(ms)}, worldMembers...)
			replies[m.oldRank] = encodeInts(vals...)
		}
	}
	return replies, nil
}

// commFromReply decodes a Split reply into a live communicator (or nil
// for an Undefined color).
func (c *comm) commFromReply(reply []byte) (mpi.Comm, error) {
	head := decodeInts(reply, 3)
	ctx, newRank, size := int64(head[0]), head[1], head[2]
	if size == 0 {
		return nil, nil
	}
	if len(reply) < (3+size)*8 {
		return nil, fmt.Errorf("engine: split reply truncated: %d bytes for size %d", len(reply), size)
	}
	members := decodeInts(reply[3*8:], size)
	topo, err := c.w.topo.Subset(members)
	if err != nil {
		return nil, fmt.Errorf("engine: split topology: %w", err)
	}
	// The sub-communicator inherits the parent's context binding and row.
	return &comm{w: c.w, ctx: ctx, members: members, rank: newRank, topo: topo, cancel: c.cancel, rec: c.rec}, nil
}

// encodeInts packs ints as little-endian int64s.
func encodeInts(vals ...int) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(v)))
	}
	return b
}

// decodeInts unpacks n little-endian int64s.
func decodeInts(b []byte, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}
