package collective

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// This file is the one place a schedule touches the wire: every
// broadcast, and the collectives that run one of its phases (Scatter,
// Gather, Allgather; see gather.go). Each is a sched.Emitter
// (internal/core); the executor asks it for the calling rank's
// operations, shifts them into the part of the program's buffer the rank
// holds, checks them, and runs them in order on the communicator. The
// verifier, the simulator and the tuner consume the very same emitter
// through sched.Generate, so what is verified is what runs.
//
// One thing is not done at its op: a receive of at least hoistFloor
// bytes is posted as early, and completed as late, as its bytes allow
// (see manage). Posted ahead through the communicator's Prepost, it
// finds the sender's message waiting to be copied once, straight into
// place, instead of staged and copied again; completed late, it holds
// up no op that does not need its bytes — the next segments' sends
// above all. Its request belongs to the rankOps, and the communicator
// re-arms it on the next run, so a kept or pooled Plan posts without
// allocating.
//
// The loop is deadlock-free wherever blocking execution, op by op, is:
// it posts no receive later than blocking execution would and starts no
// send later, so wherever it blocks — on a send, or on a receive whose
// op is behind it — everything blocking execution had posted and started
// by then is posted and started. It never reads or sends a byte before
// the receive that writes it completes and never has two receives of a
// byte in flight, and it posts receives in op order, none before one
// that runs at its op: every rank ends with blocking execution's bytes,
// matched message for message.

// ErrBadOp reports a schedule operation that cannot be executed by the
// calling rank: an unknown kind, a peer outside the communicator (or the
// rank itself), or a byte range outside the buffer.
var ErrBadOp = errors.New("malformed schedule op")

// hoistFloor is the smallest receive the executor posts early. Below it
// a message delivered into a posted receive costs a channel hand-off
// that outweighs the second copy of so few bytes: an on/off sweep of
// per-call ring-opt at np 10 and 64 lost 6–21 % at 4 KiB chunks and
// nothing beyond noise from 8 KiB up (see CHANGES.md). It is far above
// the engine's inlinePayload (256 B), the largest message a kept Plan's
// bound edge carries (bindEdges), so the two never meet.
const hoistFloor = 8 << 10

// rankOps is one rank's compiled schedule and the executor's scratch. It
// lives in a Plan — kept by a persistent handle, borrowed from planPool
// per call — so steady-state execution allocates nothing either way.
type rankOps struct {
	ops             []sched.Op
	recvs           []managed   // the managed receives, in op order
	order           []int       // indices into recvs, by completion point
	cut, open, mark []int       // manage's scratch
	bound           mpi.Binding // a kept Plan's edges (bindEdges); nil per call
	halves          [][2]int    // per op: its send and receive edges' indices in bound, -1 for none
}

// managed is a receive posted just before op post and completed just
// before op done (len(ops): at the end) — or, when the communicator
// declines to post it early (on is false), run at its own op. Its request
// is kept across runs to be re-armed; lo and hi are its pieces.
type managed struct {
	op, post, done, lo, hi int
	req                    mpi.Request
	on                     bool
}

// compile replaces s.ops with the calling rank's operations in an n-byte
// collective from root, shifted by -lo into the rank's size-byte window
// of the program's buffer (lo 0 and size n: all of it), checks each
// against (communicator size, window, rank) and places its receives. It
// costs O(own ops · log own ops) beyond the emitter, which for an elided
// row also emits each of the rank's destinations' lists once.
func (s *rankOps) compile(c mpi.Comm, e sched.Emitter, root, n, seg, lo, size int) error {
	p, me := c.Size(), c.Rank()
	s.ops = e(s.ops[:0], me, p, root, n, seg)
	for i := range s.ops {
		op := &s.ops[i]
		if lo != 0 {
			op.SendOff -= lo
			op.RecvOff -= lo
		}
		if err := op.Check(p, size, me); err != nil {
			return fmt.Errorf("collective: exec: %w: rank %d op %d (%s): %v", ErrBadOp, me, i, op, err)
		}
	}
	s.manage()
	return nil
}

// manage lists the receive halves of at least hoistFloor bytes and gives
// each its two points:
//
//   - done: the first later op that sends or receives any of its bytes,
//     or the end;
//   - post: the op after the last earlier op that touches its bytes, but
//     no earlier than an earlier receive of them completes, than the
//     previous managed receive posts, or than the op after a smaller
//     receive, which runs at its op.
//
// done keeps every later use of the bytes behind the receive, post every
// earlier one ahead of it; post's last two bounds keep receives posted
// in op order, so receives sharing a (source, tag) match as in blocking
// execution. One pass in op order finds both points. The managed
// receives' boundaries cut the buffer into pieces; every managed receive
// is a run of whole pieces, so an op touches it exactly when the op
// touches one of its pieces. At most one managed receive is in flight
// over a piece, since the next one to receive it touches it.
func (s *rankOps) manage() {
	ops, cut := s.ops, s.cut[:0]
	for i := range ops {
		if op := &ops[i]; op.Kind != sched.OpSend && op.RecvLen >= hoistFloor {
			cut = append(cut, op.RecvOff, op.RecvOff+op.RecvLen)
		}
	}
	m := len(cut) / 2
	// Keep the requests already in the backing array for re-arming.
	s.recvs = slices.Grow(s.recvs[:0], m)[:m]
	s.order = s.order[:0]
	if m == 0 {
		return
	}
	slices.Sort(cut)
	cut = slices.Compact(cut)
	s.cut = cut
	// pieces returns the pieces [lo, hi) that [off, off+n) overlaps;
	// piece k is [cut[k], cut[k+1]).
	pieces := func(off, n int) (lo, hi int) {
		if n <= 0 {
			return 0, 0
		}
		lo, _ = slices.BinarySearch(cut, off+1)
		lo = max(lo-1, 0)
		for hi = lo; hi < len(cut)-1 && cut[hi] < off+n; {
			hi++
		}
		return lo, hi
	}
	// Per piece: the managed receive in flight over it, and the earliest
	// point a receive of it may be posted at.
	open := slices.Grow(s.open[:0], len(cut))[:len(cut)]
	mark := slices.Grow(s.mark[:0], len(cut))[:len(cut)]
	s.open, s.mark = open, mark
	for k := range open {
		open[k], mark[k] = -1, 0
	}
	// touch completes, just before op i, the receives in flight over
	// pieces [lo, hi).
	inflight := 0
	touch := func(lo, hi, i int) {
		for k := lo; k < hi; k++ {
			if r := open[k]; r >= 0 {
				e := &s.recvs[r]
				e.done = i
				for q := e.lo; q < e.hi; q++ {
					open[q], mark[q] = -1, i
				}
				s.order = append(s.order, r)
				inflight--
			}
		}
	}
	floor, r := 0, 0
	for i := 0; i < len(ops) && (r < m || inflight > 0); i++ {
		op := &ops[i]
		var slo, shi int
		if op.Kind != sched.OpRecv {
			slo, shi = pieces(op.SendOff, op.SendLen)
			touch(slo, shi, i)
		}
		if op.Kind != sched.OpSend {
			lo, hi := pieces(op.RecvOff, op.RecvLen)
			touch(lo, hi, i)
			if op.RecvLen < hoistFloor {
				floor = i + 1
			} else {
				for k := lo; k < hi; k++ {
					floor = max(floor, mark[k])
					open[k] = r
				}
				e := &s.recvs[r]
				e.op, e.post, e.done, e.lo, e.hi = i, floor, len(ops), lo, hi
				r++
				inflight++
			}
		}
		for k := slo; k < shi; k++ {
			mark[k] = max(mark[k], i+1)
		}
	}
	for r := range s.recvs {
		if s.recvs[r].done == len(ops) {
			s.order = append(s.order, r)
		}
	}
}

// bindEdges hands a kept Plan's edges to the communicator's Bind: each
// (direction, peer, tag) of the ops, with how many messages cross it per
// run and the longest, and notes in halves each op's two for Move. The
// engine carries an edge of tiny messages (at most its inlinePayload) on
// a ring of cells of its own. The edges bound before, if any, are
// released first.
func (s *rankOps) bindEdges(c mpi.Comm) {
	s.releaseEdges()
	var edges []mpi.Edge
	add := func(e mpi.Edge, n int) int {
		for i := range edges {
			if x := &edges[i]; x.Peer == e.Peer && x.Tag == e.Tag && x.Send == e.Send {
				x.Count, x.MaxLen = x.Count+1, max(x.MaxLen, n)
				return i
			}
		}
		e.Count, e.MaxLen = 1, n
		edges = append(edges, e)
		return len(edges) - 1
	}
	s.halves = make([][2]int, len(s.ops))
	for i := range s.ops {
		op, h := &s.ops[i], &s.halves[i]
		h[0], h[1] = -1, -1
		if op.Kind != sched.OpRecv {
			h[0] = add(mpi.Edge{Peer: op.To, Tag: op.Tag, Send: true}, op.SendLen)
		}
		if op.Kind != sched.OpSend {
			h[1] = add(mpi.Edge{Peer: op.From, Tag: op.Tag}, op.RecvLen)
		}
	}
	s.bound = c.Bind(edges)
}

// releaseEdges gives back the edges bindEdges bound.
func (s *rankOps) releaseEdges() {
	if s.bound != nil {
		s.bound.Release()
		s.bound = nil
	}
}

// exec runs the compiled operations on c, or on its engaged binding mv,
// moving real bytes in buf (which compile or the caller has checked
// covers every op). A rank with no managed receive runs them one by
// one. Otherwise the loop, before op i, completes the receives due
// there, posts the ones due there, and runs op i: only its send half if
// its receive is posted.
func (s *rankOps) exec(c mpi.Comm, mv mpi.Binding, buf []byte) error {
	ops := s.ops
	if len(s.recvs) == 0 {
		for i := range ops {
			if err := s.execOp(c, mv, i, buf, false); err != nil {
				return opError(c, i, &ops[i], err)
			}
		}
		return nil
	}
	posted, done, mine := 0, 0, 0
	for i := 0; ; i++ {
		for ; done < len(s.order) && s.recvs[s.order[done]].done == i; done++ {
			if e := &s.recvs[s.order[done]]; e.on {
				st, err := e.req.Wait()
				if err = checkCount(st, err, &ops[e.op]); err != nil {
					return opError(c, e.op, &ops[e.op], err)
				}
			}
		}
		for ; posted < len(s.recvs) && s.recvs[posted].post == i; posted++ {
			e := &s.recvs[posted]
			op := &ops[e.op]
			e.req, e.on = c.Prepost(e.req, buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
		}
		if i == len(ops) {
			return nil
		}
		early := mine < len(s.recvs) && s.recvs[mine].op == i
		if early {
			early = s.recvs[mine].on
			mine++
		}
		if err := s.execOp(c, mv, i, buf, early); err != nil {
			return opError(c, i, &ops[i], err)
		}
	}
}

// execOp runs op i, blocking until its halves are done; with early set,
// its receive half was posted ahead and only its send half runs.
func (s *rankOps) execOp(c mpi.Comm, mv mpi.Binding, i int, buf []byte, early bool) error {
	op := &s.ops[i]
	send, recv := op.Kind != sched.OpRecv, op.Kind != sched.OpSend && !early
	var sb, rb []byte
	if send {
		sb = buf[op.SendOff : op.SendOff+op.SendLen]
	}
	if recv {
		rb = buf[op.RecvOff : op.RecvOff+op.RecvLen]
	}
	var st mpi.Status
	var err error
	switch {
	case mv != nil && (send || recv):
		h := s.halves[i]
		if !recv {
			h[1] = -1
		}
		st, err = mv.Move(h[0], sb, h[1], rb)
	case send && recv:
		st, err = c.Sendrecv(sb, op.To, op.Tag, rb, op.From, op.Tag)
	case send:
		err = c.Send(sb, op.To, op.Tag)
	case recv:
		st, err = c.Recv(rb, op.From, op.Tag)
	}
	if !recv {
		return err
	}
	return checkCount(st, err, op)
}

// checkCount holds a completed receive to the byte count op expects.
func checkCount(st mpi.Status, err error, op *sched.Op) error {
	if err == nil && st.Count != op.RecvLen {
		err = fmt.Errorf("received %d bytes, schedule says %d", st.Count, op.RecvLen)
	}
	return err
}

func opError(c mpi.Comm, i int, op *sched.Op, err error) error {
	return fmt.Errorf("rank %d op %d (%s): %w", c.Rank(), i, op, err)
}

func checkRoot(c mpi.Comm, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("collective: %w: root %d (size %d)", mpi.ErrRank, root, c.Size())
	}
	return nil
}

// runStatic runs the n-byte collective e describes from root: emit the
// calling rank's ops into a pooled Plan's scratch, shift them into buf,
// which holds bytes [lo, lo+len(buf)) of the program's buffer, check
// them against it, advance the communicator's tag stream and run. It is
// a Plan without selection, capability check or span, for the
// collectives that run a fixed schedule: the allreduce tail's broadcast,
// and Scatter, Gather and Allgather, whose non-root ranks hold only
// their subtree's bytes.
func runStatic(c mpi.Comm, buf []byte, lo, n, root, seg int, e sched.Emitter) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	p := planPool.Get().(*Plan)
	defer planPool.Put(p)
	if err := p.ops.compile(c, e, root, n, seg, lo, len(buf)); err != nil {
		return err
	}
	return p.ops.run(c, buf)
}

// run is exec behind the per-operation tag stream every collective draws
// (a one-rank communicator sends nothing and draws none).
func (s *rankOps) run(c mpi.Comm, buf []byte) error {
	if c.Size() > 1 {
		c.NextTagStream()
	}
	var mv mpi.Binding
	if s.bound != nil && s.bound.Engage(c) {
		mv = s.bound
		defer mv.Disengage()
	}
	if err := s.exec(c, mv, buf); err != nil {
		return fmt.Errorf("collective: exec: %w", err)
	}
	return nil
}

// ExecProgram executes the calling rank's portion of an already
// generated communication schedule against the communicator, moving real
// bytes in buf — the same executor the registry runs, for programs that
// do not come from a registry row (extensions like the node-aware
// ring, hand-built test programs). The rank's ops are checked
// against (pr.P, pr.N, rank) first, so a malformed program fails with
// ErrBadOp instead of panicking inside a rank body.
//
// Every rank of the communicator must call ExecProgram with the same
// program. The buffer must be at least pr.N bytes. The caller advances
// the tag stream if the program must not share one with a neighbouring
// collective.
func ExecProgram(c mpi.Comm, pr *sched.Program, buf []byte) error {
	if pr.P != c.Size() {
		return fmt.Errorf("collective: exec: program has %d ranks, communicator %d", pr.P, c.Size())
	}
	if len(buf) < pr.N {
		return fmt.Errorf("collective: exec: buffer %d bytes, program needs %d", len(buf), pr.N)
	}
	p := planPool.Get().(*Plan)
	defer planPool.Put(p)
	// Copied into the Plan's scratch: compile never writes into pr.
	ops := func(dst []sched.Op, rank, _, _, _, _ int) []sched.Op { return append(dst, pr.OpsOf(rank)...) }
	if err := p.ops.compile(c, ops, pr.Root, pr.N, 0, 0, pr.N); err != nil {
		return err
	}
	if err := p.ops.exec(c, nil, buf); err != nil {
		return fmt.Errorf("collective: exec %q: %w", pr.Name, err)
	}
	return nil
}
