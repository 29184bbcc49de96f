// Package trace observes the traffic of MPI-like programs by wrapping
// mpi.Comm. It counts messages and bytes on the send side, classified
// intra- versus inter-node through the communicator's topology and broken
// down by tag — the reserved per-phase tags of internal/core let tests
// separate scatter traffic from ring traffic and cross-validate measured
// counts against the paper's analytic model.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/topology"
)

// Counts accumulates message and byte totals.
type Counts struct {
	// Messages counts transfers, including zero-byte envelopes.
	Messages int64
	// Bytes is the payload volume.
	Bytes int64
}

func (c *Counts) add(n int) {
	c.Messages++
	c.Bytes += int64(n)
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Messages += other.Messages
	c.Bytes += other.Bytes
}

// Stats is the aggregated view over all wrapped communicators.
type Stats struct {
	// Total counts every sent message.
	Total Counts
	// Intra counts messages between ranks on the same node.
	Intra Counts
	// Inter counts messages crossing nodes.
	Inter Counts
	// ByTag breaks the totals down by message tag (the collective
	// algorithms use one reserved tag per phase).
	ByTag map[int]Counts
	// Recvs counts completed receives (should equal Total.Messages after
	// a clean run).
	Recvs int64
}

// String renders a compact summary. Recvs is printed next to the send
// totals so a clean run's invariant (recvs == msgs) — and any breach of
// it — is visible at a glance.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d recvs=%d bytes=%d intra=%d/%d inter=%d/%d",
		s.Total.Messages, s.Recvs, s.Total.Bytes,
		s.Intra.Messages, s.Intra.Bytes,
		s.Inter.Messages, s.Inter.Bytes)
	tags := make([]int, 0, len(s.ByTag))
	for tag := range s.ByTag {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	for _, tag := range tags {
		c := s.ByTag[tag]
		fmt.Fprintf(&b, " tag[%#x]=%d/%d", tag, c.Messages, c.Bytes)
	}
	return b.String()
}

// Collector aggregates traffic from any number of wrapped communicators.
// Wrap may be called concurrently (each rank wraps its own Comm); the
// returned Comm must be used by a single rank goroutine, like any Comm.
// Stats must only be called after the ranks have finished.
type Collector struct {
	mu        sync.Mutex
	recorders []*recorder
	// slots holds the per-rank recorders WrapSlot reuses across
	// sequential runs, so a collector observing a long-lived reused
	// world accumulates in place instead of growing one recorder per
	// rank per run.
	slots []*recorder
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Wrap returns a Comm that forwards to c and records its traffic into a
// fresh recorder.
func (col *Collector) Wrap(c mpi.Comm) mpi.Comm {
	r := &recorder{byTag: map[int]*tagCounts{}}
	col.mu.Lock()
	col.recorders = append(col.recorders, r)
	col.mu.Unlock()
	return &tracedComm{inner: c, rec: r, col: col}
}

// WrapSlot is Wrap with a stable identity: calls with the same slot
// (one per rank) share one recorder, which keeps a collector's memory
// constant across any number of sequential runs on a reused cluster.
// The counts accumulate exactly as with Wrap. Like any Comm, the
// returned communicator — and therefore the slot's recorder — must be
// driven by one rank goroutine at a time; distinct slots may be wrapped
// concurrently.
func (col *Collector) WrapSlot(slot int, c mpi.Comm) mpi.Comm {
	col.mu.Lock()
	for len(col.slots) <= slot {
		col.slots = append(col.slots, nil)
	}
	r := col.slots[slot]
	if r == nil {
		r = &recorder{byTag: map[int]*tagCounts{}}
		col.slots[slot] = r
		col.recorders = append(col.recorders, r)
	}
	col.mu.Unlock()
	return &tracedComm{inner: c, rec: r, col: col}
}

// Stats sums every recorder. Call only after the traced program finished.
func (col *Collector) Stats() Stats {
	col.mu.Lock()
	defer col.mu.Unlock()
	s := Stats{ByTag: map[int]Counts{}}
	for _, r := range col.recorders {
		s.Total.Add(r.total)
		s.Intra.Add(r.intra)
		s.Inter.Add(r.inter)
		s.Recvs += r.recvs
		for tag, tc := range r.byTag {
			cur := s.ByTag[tag]
			cur.Add(tc.c)
			s.ByTag[tag] = cur
		}
	}
	return s
}

type tagCounts struct{ c Counts }

// recorder is written by exactly one rank goroutine; aggregation happens
// after the run, so no locking is needed on the hot path.
type recorder struct {
	total Counts
	intra Counts
	inter Counts
	byTag map[int]*tagCounts
	recvs int64
}

func (r *recorder) recordSend(topo *topology.Map, from, to, tag, n int) {
	r.total.add(n)
	if topo.SameNode(from, to) {
		r.intra.add(n)
	} else {
		r.inter.add(n)
	}
	tc := r.byTag[tag]
	if tc == nil {
		tc = &tagCounts{}
		r.byTag[tag] = tc
	}
	tc.c.add(n)
}

// tracedComm forwards every call and records successful sends.
type tracedComm struct {
	inner mpi.Comm
	rec   *recorder
	col   *Collector
}

var (
	_ mpi.Comm      = (*tracedComm)(nil)
	_ mpi.Preposter = (*tracedComm)(nil)
)

// NextTagStream implements mpi.TagStreamer by forwarding to the wrapped
// communicator when it supports tag streams — a decorator must not
// swallow the capability, or collectives running through a traced comm
// would stop isolating from each other. (The engine translates reserved
// tags internally, so the tags recorded here remain the stable base
// phase tags regardless of stream.) Without the capability underneath,
// everything stays on stream 0.
func (t *tracedComm) NextTagStream() int {
	if ts, ok := t.inner.(mpi.TagStreamer); ok {
		return ts.NextTagStream()
	}
	return 0
}

// SpanRing implements metrics.SpanSource by forwarding to the wrapped
// communicator — tracing a comm must not hide its span ring from the
// collectives, or enabling traffic tracing would silently disable
// operation spans.
func (t *tracedComm) SpanRing() *metrics.SpanRing {
	return metrics.RingOf(t.inner)
}

// Prepost implements mpi.Preposter by forwarding to the wrapped
// communicator — without it, tracing would turn early-posted receives
// off and the traced run would no longer be the run it describes. The
// receive is counted like an Irecv's, once, when its Wait succeeds. A
// request this method returned earlier is re-armed whole: its wrapper
// here, the wrapped request underneath.
func (t *tracedComm) Prepost(req mpi.Request, buf []byte, from, tag int) (mpi.Request, bool) {
	pp, ok := t.inner.(mpi.Preposter)
	if !ok {
		return req, false
	}
	tr, _ := req.(*tracedRecvReq)
	var inner mpi.Request
	if tr != nil {
		inner = tr.Request
	}
	inner, ok = pp.Prepost(inner, buf, from, tag)
	if !ok {
		return req, false
	}
	if tr == nil {
		tr = new(tracedRecvReq)
	}
	*tr = tracedRecvReq{Request: inner, rec: t.rec}
	return tr, true
}

func (t *tracedComm) Rank() int               { return t.inner.Rank() }
func (t *tracedComm) Size() int               { return t.inner.Size() }
func (t *tracedComm) Topology() *topology.Map { return t.inner.Topology() }

// WithContext implements mpi.Contexter by rebinding the wrapped
// communicator and keeping this rank's recorder, so per-call context
// binding does not fragment the traffic counts.
func (t *tracedComm) WithContext(ctx context.Context) mpi.Comm {
	return &tracedComm{inner: mpi.WithContext(ctx, t.inner), rec: t.rec, col: t.col}
}

func (t *tracedComm) Send(buf []byte, to, tag int) error {
	err := t.inner.Send(buf, to, tag)
	if err == nil {
		t.rec.recordSend(t.inner.Topology(), t.inner.Rank(), to, tag, len(buf))
	}
	return err
}

func (t *tracedComm) Recv(buf []byte, from, tag int) (mpi.Status, error) {
	st, err := t.inner.Recv(buf, from, tag)
	if err == nil {
		t.rec.recvs++
	}
	return st, err
}

func (t *tracedComm) Sendrecv(sendBuf []byte, to, sendTag int, recvBuf []byte, from, recvTag int) (mpi.Status, error) {
	st, err := t.inner.Sendrecv(sendBuf, to, sendTag, recvBuf, from, recvTag)
	if err == nil {
		t.rec.recordSend(t.inner.Topology(), t.inner.Rank(), to, sendTag, len(sendBuf))
		t.rec.recvs++
	}
	return st, err
}

func (t *tracedComm) Isend(buf []byte, to, tag int) (mpi.Request, error) {
	req, err := t.inner.Isend(buf, to, tag)
	if err == nil {
		// Sends are counted at issue: a started nonblocking send will be
		// delivered (or the world aborts and counts stop mattering).
		t.rec.recordSend(t.inner.Topology(), t.inner.Rank(), to, tag, len(buf))
	}
	return req, err
}

func (t *tracedComm) Irecv(buf []byte, from, tag int) (mpi.Request, error) {
	req, err := t.inner.Irecv(buf, from, tag)
	if err != nil {
		return req, err
	}
	return &tracedRecvReq{Request: req, rec: t.rec}, nil
}

// tracedRecvReq counts the receive when its request first completes.
// Requests belong to a single rank goroutine, so a plain bool suffices.
type tracedRecvReq struct {
	mpi.Request
	rec     *recorder
	counted bool
}

func (r *tracedRecvReq) Wait() (mpi.Status, error) {
	st, err := r.Request.Wait()
	if err == nil && !r.counted {
		r.counted = true
		r.rec.recvs++
	}
	return st, err
}

func (t *tracedComm) Split(color, key int) (mpi.Comm, error) {
	sub, err := t.inner.Split(color, key)
	if err != nil || sub == nil {
		return nil, err
	}
	// Sub-communicator traffic is recorded too (fresh recorder via the
	// same collector). The Split handshake itself is engine-internal and
	// not counted, matching how MPI implementations account traffic.
	return t.col.Wrap(sub), nil
}

func (t *tracedComm) Iprobe(from, tag int) (mpi.Status, bool, error) {
	return t.inner.Iprobe(from, tag)
}
