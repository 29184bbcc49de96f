package engine

import (
	"cmp"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// A late send (Presend) is a send whose caller promises not to write its
// buffer until it waits for it (WaitPresends), as MPI_Isend's caller
// does until MPI_Wait. isend then never stages it: a send that finds its
// receive posted is delivered on the spot, any other one waits in the
// receiver's queue as a zero-copy envelope backed by the caller's
// buffer, and the receiver copies it once, straight into place, when it
// posts the receive. A collective's executor sends this way what no
// later op of the rank overwrites and what an earlier wait would only
// have held up (collective.rankOps.markLate).
//
// A rank's late sends in flight sit in a ring of lateWindow slots in its
// endpoint. Each slot owns the envelope and rendezvous state its send
// waits in, made on the slot's first use and kept for the world's life,
// so a steady stream of late sends allocates nothing and draws nothing
// from the engine's pools. The receiver releases a slot's envelope
// before it signals the rendezvous state, and touches neither after:
// from the signal on both are the sender's again. A late send that ends
// in an abort abandons its slot's two objects to the garbage collector,
// as an aborted operation does its pooled ones, since a receiver may
// still hold them. A late send that finds the ring full first waits for
// the oldest one. That wait comes no earlier than a synchronous send's
// at its own op would, so a schedule deadlock-free under synchronous
// sends stays deadlock-free; and it bounds what one sender pins in its
// receivers' queues to the same count the eager credit window allows.

// lateWindow is the number of late sends a rank keeps in flight: the
// default eager credit window.
const lateWindow = DefaultEagerCredits

// lateRing is one rank's late sends in flight, oldest at head. Only the
// owning rank touches it, like its tag streams.
type lateRing struct {
	slots   [lateWindow]lateSend
	head, n int
	// err is the first error a late send completed with since the last
	// WaitPresends.
	err error
}

// lateSend is one slot of the ring: a late send's request, the envelope
// and rendezvous state it waits in when no receive is posted for it, and
// what its traffic row is charged with once it completes (the caller's
// tag, before streamTag).
type lateSend struct {
	r    request
	env  *envelope
	rdv  *rdvState
	rec  *metrics.TrafficRow
	tag  int
	near bool
}

// envelope readies the slot's own envelope for a zero-copy send of buf
// and returns it.
func (s *lateSend) envelope(ctx int64, src, srcWorld, tag int, buf []byte) *envelope {
	s.rdv.buf = buf
	env := s.env
	env.ctx, env.src, env.srcWorld, env.tag = ctx, src, srcWorld, tag
	env.data, env.dbuf, env.rdv = nil, nil, s.rdv
	return env
}

// Presend starts a late send of buf to rank to: isend, told that the
// caller leaves buf untouched until WaitPresends, so it never stages the
// payload. It declines — nothing is sent, and the caller sends the
// ordinary way — an invalid peer or tag, and every send a late start
// cannot spare a copy: one above the eager limit, which is never staged
// (late 1 MiB sends cost lmsg-np8 9 % on its p50 and 6 % on its peak
// RSS, 10 alternated pairs), and one to a destination the transport
// wires, whose sender copies nothing in process (Prepost declines a
// wired source likewise).
func (c *comm) Presend(buf []byte, to, tag int) bool {
	if to < 0 || to >= len(c.members) || to == c.rank || mpi.CheckTag(tag, false) != nil {
		return false
	}
	dst := c.worldRankOf(to)
	if len(buf) > c.w.eagerLimit || c.w.wired && c.w.trans.Wire(dst) {
		return false
	}
	ep := c.w.eps[c.worldRank()]
	q := ep.late
	if q == nil {
		q = new(lateRing)
		ep.late = q
	}
	if q.n == lateWindow {
		q.complete()
	}
	s := &q.slots[(q.head+q.n)%lateWindow]
	q.n++
	if s.env == nil {
		// Made whether or not this send needs them, so that the slots
		// one collective uses have theirs after its first run.
		s.env, s.rdv = new(envelope), &rdvState{done: make(chan struct{}, 1), late: true}
	}
	s.r, s.rec, s.tag, s.near = request{}, c.rec, tag, c.rec != nil && c.topo.SameNode(c.rank, to)
	c.w.isend(&s.r, c.ctx, c.rank, c.worldRank(), dst, buf, c.streamTag(tag), c.cancel, s)
	return true
}

// WaitPresends completes every late send the calling rank has in flight,
// oldest first, and returns the first error among them: after it, every
// buffer handed to Presend is the caller's again. A rank waits before
// its body returns.
func (c *comm) WaitPresends() error {
	q := c.w.eps[c.worldRank()].late
	if q == nil {
		return nil
	}
	for q.n > 0 {
		q.complete()
	}
	// Emptied, the ring starts over at its first slot: a caller that
	// waits once per collective only ever uses, and makes the objects
	// of, as many slots as one collective keeps in flight.
	err := q.err
	q.head, q.err = 0, nil
	return err
}

// complete waits for the oldest late send and charges it to its row.
func (q *lateRing) complete() {
	s := &q.slots[q.head]
	st, err := s.r.Wait()
	if err == nil && s.rec != nil {
		s.rec.Sent(s.tag, st.Count, s.near)
	}
	if err != nil {
		q.err = cmp.Or(q.err, err)
		s.env, s.rdv = nil, nil
	}
	s.r, s.rec = request{}, nil
	q.head = (q.head + 1) % lateWindow
	q.n--
}
