package engine

import (
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// inlinePayload is the largest eager payload staged inside its envelope
// (envelope.small) rather than in a bufpool buffer: a staged tiny message
// is then one pooled object, not two. Every envelope carries the array,
// so raising it costs resident memory on every queue. A bound edge's
// messages have their own, larger bound (bindLimit, edge.go): they travel
// in the edge's cells, never in an envelope.
const inlinePayload = 256

// envelope is a message that arrived before a matching receive was posted
// (MPI's "unexpected message queue" entry). Envelopes are pooled; see
// pool.go for the ownership rules.
type envelope struct {
	ctx      int64
	src      int // sender's rank within the ctx communicator
	srcWorld int // sender's world rank (for flow-control accounting)
	tag      int
	// data is the eager payload, an engine-owned copy: small[:n] for a
	// local one of at most inlinePayload bytes, dbuf.B above it or when
	// it came over a transport; nil for rendezvous.
	data []byte
	// dbuf is the pool handle backing data, released on consumption;
	// nil for an inline payload.
	dbuf *bufpool.Buf
	rdv  *rdvState // non-nil for local rendezvous
	// ackID, when nonzero, marks a remote rendezvous payload: the
	// consuming receive (after copying out) sends the RdvAck carrying it
	// back to srcWorld, which unblocks the sender in its process. Remote
	// eager envelopes are indistinguishable from local pooled ones (data
	// + dbuf, no ackID).
	ackID uint64
	// small holds an inline payload. It comes last, so the fields every
	// match and receive reads sit together ahead of it.
	small [inlinePayload]byte
}

// rdvState links a zero-copy send (rendezvous-sized, or eager past the
// credit window) to the eventual receiver.
// The receiver copies directly out of buf (single copy) and signals done
// with one buffered send — a send, not a close, so the channel survives
// recycling through rdvPool.
type rdvState struct {
	buf  []byte
	done chan struct{} // buffered(1); exactly one signal per use
	// late marks the state, and the envelope that carries it, as a
	// late-send slot's own (late.go): neither ever enters a pool.
	late bool
}

// posted is a receive waiting for a matching message. Pooled; the done
// channel is reused across recycles (one value per use, drained by the
// receiver before the object returns to the pool).
type posted struct {
	ctx      int64
	src, tag int // may be mpi.AnySource / mpi.AnyTag
	buf      []byte
	done     chan recvResult // buffered(1): sender never blocks delivering
	// w is the posting world: a transport placing a remote message into
	// buf fragment by fragment (see remote.go) stops once it has aborted.
	w *World
	// kept marks a Prepost request's own posted receive, which never
	// enters the pool.
	kept bool
}

type recvResult struct {
	st  mpi.Status
	err error
}

// endpoint is one rank's mailbox: the unexpected-message queue and the
// posted-receive queue, both in arrival/post order so matching follows
// MPI's non-overtaking rule.
type endpoint struct {
	mu       sync.Mutex
	arrivals []*envelope
	recvs    []*posted
	// eagerBuffered counts unconsumed eager envelopes per sender world
	// rank: the credit window isend checks before buffering another.
	eagerBuffered []int32
	// arrivalsMax and recvsMax are the two queues' high-water marks, kept
	// here (under mu) so the gauges in the rank's metrics shard — a line
	// its owner writes on every receive — are touched only when one rises.
	arrivalsMax, recvsMax int

	// tagStreams holds this rank's current collective tag stream per
	// communicator context (see mpi.StreamTag). It is touched only by the
	// owning rank's goroutine during a run — every operation of a comm
	// runs on its owner — and cleared by RunContext between runs (the
	// executor handoff orders those accesses), so ep.mu is not needed.
	// (streamCtx, streamID) is the entry last used, kept out of the map:
	// every message of a collective translates its tag through the same
	// one, so the map is written only when the rank switches context.
	tagStreams map[int64]int
	streamCtx  int64
	streamID   int
	// plans counts the rank's kept schedules per ctx (their ordinal keys
	// their edges). Owner-only, like the streams.
	plans map[int64]int
	// edges holds the bound edges ending at this rank, by key, for the
	// sender to meet at bind time and the run-end check to drain. Under
	// mu.
	edges map[edgeKey]*edge
	// late holds the rank's late sends in flight (late.go); nil until
	// its first. Owner-only, like the streams.
	late *lateRing
}

func newEndpoint(np int) *endpoint {
	return &endpoint{
		eagerBuffered: make([]int32, np),
		tagStreams:    map[int64]int{},
	}
}

// stream returns this rank's current collective tag stream for ctx.
func (ep *endpoint) stream(ctx int64) int {
	if ctx != ep.streamCtx {
		ep.tagStreams[ep.streamCtx] = ep.streamID
		ep.streamCtx, ep.streamID = ctx, ep.tagStreams[ctx]
	}
	return ep.streamID
}

// nextStream advances the rank's collective tag stream for ctx and
// returns the new stream id. Stream ids wrap at mpi.NumTagStreams; a
// rank finishes (or at least issues every operation of) collective N on
// a comm before entering collective N+1, so live collectives are never
// a full wrap apart and wrapped ids cannot collide.
func (ep *endpoint) nextStream(ctx int64) int {
	ep.streamID = (ep.stream(ctx) + 1) % mpi.NumTagStreams
	return ep.streamID
}

// resetStreams clears all stream counters (between runs, so counters —
// and the per-ctx map footprint from Split — don't grow across runs).
// The emptied cache agrees with the emptied map: no stream is stream 0.
// The run's kept-plan ordinals and bound edges go with them.
func (ep *endpoint) resetStreams() {
	clear(ep.tagStreams)
	ep.streamCtx, ep.streamID = 0, 0
	ep.plans, ep.edges = nil, nil
}

// enqueueArrival appends env to rank's unexpected queue and publishes the
// queue's high-water gauge if this raised it. Caller holds ep.mu.
func (w *World) enqueueArrival(ep *endpoint, rank int, env *envelope) {
	ep.arrivals = append(ep.arrivals, env)
	if n := len(ep.arrivals); n > ep.arrivalsMax {
		ep.arrivalsMax = n
		w.metrics.Max(rank, metrics.ArrivalQueueMax, int64(n))
	}
}

// enqueuePosted is enqueueArrival for the posted-receive queue.
func (w *World) enqueuePosted(ep *endpoint, rank int, pr *posted) {
	ep.recvs = append(ep.recvs, pr)
	if n := len(ep.recvs); n > ep.recvsMax {
		ep.recvsMax = n
		w.metrics.Max(rank, metrics.PostedQueueMax, int64(n))
	}
}

func matchSrc(want, got int) bool { return want == mpi.AnySource || want == got }
func matchTag(want, got int) bool { return want == mpi.AnyTag || want == got }

// copyPayload copies src into dst, reporting truncation when src does not
// fit (MPI_ERR_TRUNCATE; the receiver sees the error, the sender does not).
func copyPayload(dst, src []byte) (int, error) {
	if len(src) > len(dst) {
		copy(dst, src[:len(dst)])
		return len(dst), fmt.Errorf("%w: %d-byte message, %d-byte buffer", mpi.ErrTruncate, len(src), len(dst))
	}
	copy(dst, src)
	return len(src), nil
}

// findPosted returns the index of the first posted receive matching
// (ctx, src, tag), -1 when there is none. Caller holds ep.mu.
func (ep *endpoint) findPosted(ctx int64, src, tag int) int {
	for i, pr := range ep.recvs {
		if pr.ctx == ctx && matchSrc(pr.src, src) && matchTag(pr.tag, tag) {
			return i
		}
	}
	return -1
}

// takePosted removes and returns posted receive i. Caller holds ep.mu.
// The vacated tail slot is nil'ed: the shift-down delete otherwise
// leaves the last pointer duplicated past the new length, pinning a
// delivered (and possibly recycled) object for the world's lifetime.
func (ep *endpoint) takePosted(i int) *posted {
	pr := ep.recvs[i]
	last := len(ep.recvs) - 1
	copy(ep.recvs[i:], ep.recvs[i+1:])
	ep.recvs[last] = nil
	ep.recvs = ep.recvs[:last]
	return pr
}

// matchPosted finds and removes the first posted receive matching
// (ctx, src, tag). Caller holds ep.mu.
func (ep *endpoint) matchPosted(ctx int64, src, tag int) *posted {
	if i := ep.findPosted(ctx, src, tag); i >= 0 {
		return ep.takePosted(i)
	}
	return nil
}

// matchArrival finds and removes the first arrived envelope matching
// (ctx, src, tag). Caller holds ep.mu. The vacated tail slot is nil'ed
// so consumed envelopes (and the pooled buffers they carry) stay
// reclaimable.
func (ep *endpoint) matchArrival(ctx int64, src, tag int) *envelope {
	for i, env := range ep.arrivals {
		if env.ctx == ctx && matchSrc(src, env.src) && matchTag(tag, env.tag) {
			last := len(ep.arrivals) - 1
			copy(ep.arrivals[i:], ep.arrivals[i+1:])
			ep.arrivals[last] = nil
			ep.arrivals = ep.arrivals[:last]
			return env
		}
	}
	return nil
}

func (ep *endpoint) pendingArrivals() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.arrivals)
}

func (ep *endpoint) pendingRecvs() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.recvs)
}

// describePending renders this endpoint's stuck state for diagnostics.
func (ep *endpoint) describePending(rank int) string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	s := ""
	for _, pr := range ep.recvs {
		s += fmt.Sprintf(" [rank %d waiting recv src=%d tag=%d ctx=%d]", rank, pr.src, pr.tag, pr.ctx)
	}
	for _, env := range ep.arrivals {
		if env.rdv != nil {
			s += fmt.Sprintf(" [rank %d holds blocked send, %d bytes, zero-copy, from %d tag=%d ctx=%d]", rank, len(env.rdv.buf), env.src, env.tag, env.ctx)
		}
	}
	for k, e := range ep.edges {
		if e.recvWaits.armed.Load() {
			s += fmt.Sprintf(" [rank %d waiting on bound edge from %d tag=%d ctx=%d]", rank, k.srcWorld, k.tag, k.ctx)
		}
		if e.sendWaits.armed.Load() {
			s += fmt.Sprintf(" [rank %d waiting on full bound edge to %d tag=%d ctx=%d]", k.srcWorld, rank, k.tag, k.ctx)
		}
	}
	return s
}
