package engine

import (
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// A kept schedule (collective.NewPlan) hands the engine every edge it
// will use (mpi.Binder). An edge whose messages all fit inlinePayload
// (and the eager limit) between two hosted, unwired ranks is bound: both
// ends meet at bind time on one edge object under the receiver's
// endpoint, keyed by (ctx, the rank's kept-plan ordinal on ctx, source,
// base tag), which lives until the Run ends. It holds k cells, one per
// message the schedule moves on it per run; the sender copies message p
// into cell p mod k and stamps it, the receiver copies it out and
// publishes that it has. No endpoint lock, no queue scan, no envelope. A
// sender a run ahead finds its cell still full and waits for the
// receiver: the edge's flow control, in place of the credit window.
//
// A bound operation is still an isend or irecv; one that cannot finish
// at once completes in request.harvest, which parks the rank until the
// other end's wake. It does not spin first: 16 yields before the park
// cost a kept np-64 opt-seg plan of 4 KiB (msgrate-np64's shape, two
// cores) ~15 % on the goroutine executor and 2.3x on the pooled one. A
// bound message's counters (EagerSends,
// StagedBytes, EagerRecvs) are charged when the rank's run of the
// schedule ends (Disengage), from the edges' own counts: atomic adds per
// message were a tenth of the path.

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
}

const stampShift = 9 // a stamp's low bits hold the length, ≤ inlinePayload

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

// binding is one rank's bound edges of one kept schedule.
type binding struct {
	w       *World
	ctx     int64
	rank    int     // the binding rank's world rank
	out, in []bound // out: peer is a world rank; in: a rank of the comm
}

type bound struct {
	peer, base, tag int // tag: base in the engaged run's stream
	e               *edge
	counted, bytes  uint64 // what Disengage has charged of the edge's counts
}

var (
	_ mpi.Binder  = (*comm)(nil)
	_ mpi.Binding = (*binding)(nil)
)

// Bind implements mpi.Binder: it binds each edge of at most inlinePayload
// (and eager) bytes whose two ranks are hosted and unwired, meeting the
// peer's end of it under the receiver's endpoint.
func (c *comm) Bind(edges []mpi.Edge) mpi.Binding {
	w, me := c.w, c.worldRank()
	ep := w.eps[me]
	if ep.plans == nil {
		ep.plans = map[int64]int{}
	}
	ord := ep.plans[c.ctx]
	ep.plans[c.ctx] = ord + 1
	b := &binding{w: w, ctx: c.ctx, rank: me}
	for _, ed := range edges {
		if ed.Peer < 0 || ed.Peer >= len(c.members) || ed.Peer == c.rank || ed.Count <= 0 ||
			ed.MaxLen > inlinePayload || ed.MaxLen > w.eagerLimit {
			continue
		}
		peer := c.worldRankOf(ed.Peer)
		if !w.hosted[me] || !w.hosted[peer] || w.wired && (w.trans.Wire(me) || w.trans.Wire(peer)) {
			continue
		}
		if ed.Send {
			e := w.meet(peer, edgeKey{c.ctx, ord, me, ed.Tag}, ed.Count, ed.MaxLen)
			b.out = append(b.out, bound{peer: peer, base: ed.Tag, e: e})
		} else {
			e := w.meet(me, edgeKey{c.ctx, ord, peer, ed.Tag}, ed.Count, ed.MaxLen)
			b.in = append(b.in, bound{peer: ed.Peer, base: ed.Tag, e: e})
		}
	}
	if len(b.out)+len(b.in) == 0 {
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
	ep.edges[key] = e
	return e
}

// Engage implements mpi.Binding.
func (b *binding) Engage(c mpi.Comm) bool {
	cc, ok := c.(*comm)
	if !ok || cc.w != b.w || cc.ctx != b.ctx || cc.worldRank() != b.rank {
		return false
	}
	for _, bs := range [2][]bound{b.out, b.in} {
		for i := range bs {
			bs[i].tag = cc.streamTag(bs[i].base)
		}
	}
	b.w.eps[b.rank].live = b
	return true
}

// Disengage implements mpi.Binding: the rank's messages on the edges
// since the last Disengage are charged as the staged eager messages they
// stand for.
func (b *binding) Disengage() {
	w, r := b.w, b.rank
	w.eps[r].live = nil
	for i := range b.out {
		o := &b.out[i]
		w.metrics.Add(r, metrics.EagerSends, int64(o.e.sent-o.counted))
		w.metrics.Add(r, metrics.StagedBytes, int64(o.e.staged-o.bytes))
		o.counted, o.bytes = o.e.sent, o.e.staged
	}
	for i := range b.in {
		in := &b.in[i]
		taken := in.e.taken.Load()
		w.metrics.Add(r, metrics.EagerRecvs, int64(taken-in.counted))
		in.counted = taken
	}
}

// find returns the edge bound to (peer, tag) in bs, nil for none.
func find(bs []bound, peer, tag int) *edge {
	for i := range bs {
		if bs[i].peer == peer && bs[i].tag == tag {
			return bs[i].e
		}
	}
	return nil
}

// edgeTry runs r's pending bound operation if its edge has a free cell
// (a send: the message k before has been taken) or a message (a
// receive), and completes r.
func (r *request) edgeTry() bool {
	e, buf := r.e, r.ebuf
	k := uint64(len(e.stamps))
	if r.esend {
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
		r.finish(mpi.Status{Count: len(buf)}, nil)
	} else {
		p, st := e.taken.Load(), e.stamps[e.takeAt].Load()
		if st>>stampShift != p+1 {
			return false
		}
		at := e.takeAt * e.size
		n, err := copyPayload(buf, e.cells[at:at+int(st&(1<<stampShift-1))])
		e.taken.Store(p + 1)
		e.takeAt = next(e.takeAt, k)
		e.sendWaits.wake()
		r.finish(mpi.Status{Source: r.st.Source, Tag: r.st.Tag, Count: n}, err)
	}
	r.e, r.ebuf = nil, nil
	return true
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
