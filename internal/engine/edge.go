package engine

import (
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// A kept schedule (collective.NewPlan) hands the engine every edge it
// will use (Comm.Bind). An edge whose messages all fit inlinePayload
// (and the eager limit) between two hosted, unwired ranks is bound: both
// ends meet at bind time on one edge object under the receiver's
// endpoint, keyed by (ctx, the rank's kept-plan ordinal on ctx, source,
// base tag). It holds k cells, two per message the schedule moves on it
// per run (cellRuns); the sender copies message p into cell p mod k and
// stamps it, the receiver copies it out and publishes that it has. No
// endpoint lock, no queue scan, no envelope. A sender one run ahead of
// its receiver still finds free cells; one two runs ahead finds its cell
// still full and waits for the receiver: the edge's flow control, in
// place of the credit window. An edge lives until both ends have
// released their bindings (a kept Plan rebinding or freed) and it is
// drained, or until the Run ends.
//
// The executor runs each op with one call, binding.Move, naming its
// halves by their edges' indices: nothing is looked up per message, and
// a bound message has no other route. A half that cannot finish at once
// completes in request.harvest, which parks the rank until the other
// end's wake. It does not spin first: 16 yields before the park cost a
// kept np-64 opt-seg plan of 4 KiB (msgrate-np64's shape, two cores)
// ~15 % on the goroutine executor and 2.3x on the pooled one. A bound
// message's counters (EagerSends, StagedBytes, EagerRecvs) are charged
// when the rank's run ends (Disengage), from the edges' own counts:
// atomic adds per message were a tenth of the path.

// edge is one bound (source → destination, tag). The sender stamps cell
// p mod k with p+1 and the message's length once message p is in it; the
// receiver publishes how many it has taken, which the sender reads only
// when about to reuse a cell it has not seen freed. So a message moves
// its cell's cache lines one way, and the count goes back once a lap.
// Each end's fields sit on cache lines of their own; the stamps sit
// together and the payloads together, sized to the messages (cells
// padded to a line, or carrying inlinePayload bytes each, measured
// slower on the same plan).
type edge struct {
	sent, staged uint64 // messages and bytes published, the sender's own
	seenTaken    uint64 // the sender's last reading of taken
	putAt        int    // the sender's cell, sent mod k
	recvWaits    waiter // the receiver parks here for a message
	_            [128 - 48]byte

	taken     atomic.Uint64 // messages copied out, written by the receiver
	takeAt    int           // the receiver's cell, taken mod k
	sendWaits waiter        // the sender parks here for a free cell
	_         [128 - 32]byte

	stamps []atomic.Uint64 // cell i: (p+1)<<stampShift | length of message p, 0 before the first
	size   int
	cells  []byte // cell i is cells[i*size:(i+1)*size]

	dst      *endpoint // the receiver's, where the edge is kept
	key      edgeKey
	released atomic.Int32 // ends whose binding let the edge go
}

const stampShift = 9 // a stamp's low bits hold the length, ≤ inlinePayload

// cellRuns is how many runs of its messages an edge holds, so that a
// sender one run ahead does not park. On msgrate-np64's shape two runs
// cut the parks per broadcast from 80 (one run) to 46 for a few percent
// of peak RSS; four cut them to 23 but cost up to 27 % more RSS.
const cellRuns = 2

// waiter is where one end of an edge parks: it arms the flag, checks
// once more, and blocks on ch (buffered(1)) for the other end's wake.
type waiter struct {
	armed atomic.Bool
	ch    chan struct{}
}

// wake is the bound path's one wake site: it lets the other end go if it
// armed its waiter. A surplus token is dropped; the woken end checks its
// edge again anyway.
func (wt *waiter) wake() {
	if wt.armed.Load() && wt.armed.CompareAndSwap(true, false) {
		select {
		case wt.ch <- struct{}{}:
		default:
		}
	}
}

func newEdge(k, size int) *edge {
	e := &edge{stamps: make([]atomic.Uint64, k), size: size, cells: make([]byte, k*size)}
	e.recvWaits.ch, e.sendWaits.ch = make(chan struct{}, 1), make(chan struct{}, 1)
	return e
}

// next is the cell after i of k (a compare, not a division).
func next(i int, k uint64) int {
	if i++; uint64(i) == k {
		return 0
	}
	return i
}

// edgeKey names an edge under its receiver's endpoint.
type edgeKey struct {
	ctx           int64
	ordinal       int
	srcWorld, tag int
}

// binding is one rank's edges of one kept schedule, bound or not, at
// their index in the slice Bind took.
type binding struct {
	w      *World
	ctx    int64
	rank   int // the binding rank's world rank
	edges  []bound
	c      *comm   // the engaged communicator, nil between runs
	sq, rq request // where a Move's send and receive wait
}

type bound struct {
	peer, base, tag int // peer: a rank of the comm; tag: base in the engaged run's stream
	send            bool
	e               *edge  // nil: not bound
	counted, bytes  uint64 // what Disengage has charged of the edge's counts
}

var _ mpi.Binding = (*binding)(nil)

// Bind binds each edge of at most inlinePayload (and eager) bytes whose
// two ranks are hosted and unwired, meeting the peer's end of it under
// the receiver's endpoint.
func (c *comm) Bind(edges []mpi.Edge) mpi.Binding {
	w, me := c.w, c.worldRank()
	ep := w.eps[me]
	if ep.plans == nil {
		ep.plans = map[int64]int{}
	}
	ord := ep.plans[c.ctx]
	ep.plans[c.ctx] = ord + 1
	b := &binding{w: w, ctx: c.ctx, rank: me, edges: make([]bound, len(edges))}
	n := 0
	for i, ed := range edges {
		x := &b.edges[i]
		x.peer, x.base, x.send = ed.Peer, ed.Tag, ed.Send
		if ed.Peer < 0 || ed.Peer >= len(c.members) || ed.Peer == c.rank || ed.Count <= 0 ||
			ed.MaxLen > inlinePayload || ed.MaxLen > w.eagerLimit {
			continue
		}
		peer := c.worldRankOf(ed.Peer)
		if !w.hosted[me] || !w.hosted[peer] || w.wired && (w.trans.Wire(me) || w.trans.Wire(peer)) {
			continue
		}
		if ed.Send {
			x.e = w.meet(peer, edgeKey{c.ctx, ord, me, ed.Tag}, cellRuns*ed.Count, ed.MaxLen)
		} else {
			x.e = w.meet(me, edgeKey{c.ctx, ord, peer, ed.Tag}, cellRuns*ed.Count, ed.MaxLen)
		}
		n++
	}
	if n == 0 {
		return nil
	}
	return b
}

// meet returns the edge key names under dst's endpoint, creating it with
// k cells of size bytes when its other end has not bound it yet.
func (w *World) meet(dst int, key edgeKey, k, size int) *edge {
	ep := w.eps[dst]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if e := ep.edges[key]; e != nil {
		return e
	}
	if ep.edges == nil {
		ep.edges = map[edgeKey]*edge{}
	}
	e := newEdge(k, size)
	e.dst, e.key = ep, key
	ep.edges[key] = e
	return e
}

// Release implements mpi.Binding: the rank is done with b's edges. The
// second end to let an edge go deletes it from its receiver's endpoint
// if it is drained; by then neither end writes it, so the sender's count
// is safe to read. An undrained edge stays for the Run-end check to
// report.
func (b *binding) Release() {
	for i := range b.edges {
		e := b.edges[i].e
		if e == nil || e.released.Add(1) < 2 || e.sent != e.taken.Load() {
			continue
		}
		e.dst.mu.Lock()
		if e.dst.edges[e.key] == e {
			delete(e.dst.edges, e.key)
		}
		e.dst.mu.Unlock()
	}
	b.edges = nil
}

// Engage implements mpi.Binding.
func (b *binding) Engage(c mpi.Comm) bool {
	cc, ok := c.(*comm)
	if !ok || cc.w != b.w || cc.ctx != b.ctx || cc.worldRank() != b.rank {
		return false
	}
	for i := range b.edges {
		b.edges[i].tag = cc.streamTag(b.edges[i].base)
	}
	b.c = cc
	return true
}

// Move implements mpi.Binding. A bound half copies into or out of its
// edge's next cell, waiting in request.harvest only when that is not
// ready; an unbound half, or a message too long for its edge's cells
// (ranks that bound different schedules), is an isend or irecv. Like
// Sendrecv, it charges the comm's traffic row once both halves succeed.
func (b *binding) Move(send int, sbuf []byte, recv int, rbuf []byte) (mpi.Status, error) {
	c, w := b.c, b.w
	if err := w.enter(c.cancel); err != nil {
		return mpi.Status{}, err
	}
	var st mpi.Status
	var sr, rr *request // the halves left to wait for
	if recv >= 0 {
		in := &b.edges[recv]
		st.Source, st.Tag = in.peer, in.tag
		if in.e == nil {
			b.rq, rr = request{}, &b.rq
			w.irecv(rr, c.ctx, b.rank, rbuf, in.peer, in.tag, c.cancel)
		}
	}
	if send >= 0 {
		if out := &b.edges[send]; out.e == nil || len(sbuf) > out.e.size {
			b.sq, sr = request{}, &b.sq
			w.isend(sr, c.ctx, c.rank, b.rank, c.worldRankOf(out.peer), sbuf, out.tag, c.cancel)
		} else if !out.e.put(sbuf) {
			b.sq, sr = request{w: w, rank: b.rank, cancel: c.cancel, e: out.e, ebuf: sbuf, esend: true}, &b.sq
		}
	}
	var err, serr error
	if recv >= 0 && rr == nil {
		e, ok := b.edges[recv].e, false
		if st.Count, ok, err = e.take(rbuf); !ok {
			b.rq, rr = request{w: w, rank: b.rank, cancel: c.cancel, e: e, ebuf: rbuf, st: st}, &b.rq
		}
	}
	if sr != nil {
		_, serr = sr.Wait()
	}
	if rr != nil {
		st, err = rr.Wait()
	}
	if err == nil {
		err = serr
	}
	if err == nil && c.rec != nil {
		if send >= 0 {
			c.sent(b.edges[send].peer, b.edges[send].base, len(sbuf))
		}
		if recv >= 0 {
			c.rec.Recvs++
		}
	}
	return st, err
}

// Disengage implements mpi.Binding: the rank's messages on the edges
// since the last Disengage are charged as the staged eager messages they
// stand for.
func (b *binding) Disengage() {
	w, r := b.w, b.rank
	b.c = nil
	for i := range b.edges {
		x := &b.edges[i]
		switch {
		case x.e == nil:
		case x.send:
			w.metrics.Add(r, metrics.EagerSends, int64(x.e.sent-x.counted))
			w.metrics.Add(r, metrics.StagedBytes, int64(x.e.staged-x.bytes))
			x.counted, x.bytes = x.e.sent, x.e.staged
		default:
			taken := x.e.taken.Load()
			w.metrics.Add(r, metrics.EagerRecvs, int64(taken-x.counted))
			x.counted = taken
		}
	}
}

// put copies buf into the edge's next cell if it is free (the message k
// before has been taken), and reports whether it did.
func (e *edge) put(buf []byte) bool {
	k := uint64(len(e.stamps))
	p := e.sent
	if p-e.seenTaken >= k {
		if e.seenTaken = e.taken.Load(); p-e.seenTaken >= k {
			return false
		}
	}
	copy(e.cells[e.putAt*e.size:], buf)
	e.stamps[e.putAt].Store((p+1)<<stampShift | uint64(len(buf)))
	e.sent, e.staged, e.putAt = p+1, e.staged+uint64(len(buf)), next(e.putAt, k)
	e.recvWaits.wake()
	return true
}

// take copies the edge's next message into buf if it has arrived, and
// reports whether it did and the message's length.
func (e *edge) take(buf []byte) (n int, ok bool, err error) {
	p, st := e.taken.Load(), e.stamps[e.takeAt].Load()
	if st>>stampShift != p+1 {
		return 0, false, nil
	}
	at := e.takeAt * e.size
	n, err = copyPayload(buf, e.cells[at:at+int(st&(1<<stampShift-1))])
	e.taken.Store(p + 1)
	e.takeAt = next(e.takeAt, uint64(len(e.stamps)))
	e.sendWaits.wake()
	return n, true, err
}

// edgeTry runs r's pending bound half if its edge is ready (see put and
// take), and completes r.
func (r *request) edgeTry() bool {
	n, ok, err := len(r.ebuf), false, error(nil)
	if r.esend {
		ok = r.e.put(r.ebuf)
	} else {
		n, ok, err = r.e.take(r.ebuf)
	}
	if ok {
		r.finish(mpi.Status{Source: r.st.Source, Tag: r.st.Tag, Count: n}, err)
		r.e, r.ebuf = nil, nil
	}
	return ok
}

// edgeArm arms r's end of its edge and tries once more, so that either
// this try or the other end's wake sees what the other end publishes.
func (r *request) edgeArm() bool {
	wt := &r.e.recvWaits
	if r.esend {
		wt = &r.e.sendWaits
	}
	wt.armed.Store(true)
	if !r.edgeTry() {
		return false
	}
	wt.armed.Store(false)
	return true
}

// pendingEdges counts the messages left in the bound edges ending at ep,
// once the Run is over (until then a sender's count is its own).
func (ep *endpoint) pendingEdges() (n int) {
	for _, e := range ep.edges {
		n += int(e.sent - e.taken.Load())
	}
	return n
}
