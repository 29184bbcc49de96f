package collective

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// This file is the one place a schedule touches the wire: every
// broadcast, the collectives that run one of its phases (Scatter,
// Gather, Allgather; see gather.go), Barrier, and Reduce and Allreduce,
// whose Fold receives combine what arrives. Each is a sched.Emitter
// (internal/core) bound into a Plan (plan.go) the one way, per call or
// kept; binding asks the emitter for the calling rank's operations,
// shifts them into the part of the program's buffer the rank holds and
// checks them, and Plan.Execute runs them in order on the communicator.
// The verifier, the simulator and the tuner consume the very same
// emitter through sched.Generate, so what is verified is what runs.
//
// Two things are not done at their op. A plain receive of at least
// hoistFloor bytes is posted as early, and completed as late, as its
// bytes allow (see manage). Posted ahead through the communicator's
// Prepost, it finds the sender's message waiting to be copied once,
// straight into place, instead of staged and copied again; completed
// late, it holds up no op that does not need its bytes — the next
// segments' sends above all. Its request belongs to the rankOps, and
// the communicator re-arms it on the next run, so a kept or pooled Plan
// posts without allocating. And a send of at least hoistFloor bytes
// that comes before the rank's last receive, and whose bytes no later
// op receives into, is started at its op through the communicator's
// Presend and completed only at the end of the run (see markLate): the
// communicator never stages it, and the receiver copies it once,
// straight out of the sender's buffer, whenever it posts the receive.
// A send the communicator would not have staged anyway — one it sends
// by rendezvous or over a wire — it declines, and that runs at its op.
//
// The loop is deadlock-free wherever blocking execution, op by op, with
// synchronous sends is: it posts no receive later than blocking
// execution would, starts no send later and waits for none earlier, so
// wherever it blocks — on a send, or on a receive whose op is behind it
// — everything blocking execution had posted and started by then is
// posted and started. It never reads or sends a byte before the receive
// that writes it completes, never writes a byte a send still in flight
// reads, and never has two receives of a byte in flight, and it posts
// receives in op order, none before one that runs at its op: every rank
// ends with blocking execution's bytes, matched message for message.

// ErrBadOp reports a schedule operation that cannot be executed by the
// calling rank: an unknown kind, a peer outside the communicator (or the
// rank itself), or a byte range outside the buffer.
var ErrBadOp = errors.New("malformed schedule op")

// hoistFloor is the smallest receive the executor posts early, and the
// smallest send it starts late. Below it a message delivered into a
// posted receive costs a channel hand-off that outweighs the second copy
// of so few bytes: an on/off sweep of per-call ring-opt at np 10 and 64
// lost 6–21 % at 4 KiB chunks and nothing beyond noise from 8 KiB up
// (see CHANGES.md). It is far above the engine's bind limit (1 KiB), the
// largest message a bound edge carries (bindEdges), so neither half ever
// meets a bound edge.
const hoistFloor = 8 << 10

// rankOps is one rank's compiled schedule and the executor's scratch. It
// lives in a Plan — kept by a persistent handle, borrowed from planPool
// per call — so steady-state execution allocates nothing either way.
type rankOps struct {
	ops             []sched.Op
	recvs           []managed   // the managed receives, in op order
	order           []int       // indices into recvs, by completion point
	cut, open, mark []int       // manage's scratch
	late            []int       // the ops whose send half is late, in op order (markLate)
	held            []span      // markLate's scratch
	bound           mpi.Binding // a kept or cached broadcast Plan's edges (bindEdges); nil for one call
	halves          [][2]int    // per op: its send and receive edges' indices in bound, -1 for none
	red             Op          // how a Fold receive combines (set per run by Calls.run)
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
// row also emits each of the rank's destinations' lists once. The
// emitter writes into pooled scratch, and s gets a copy: on a first
// compile one allocation at the ops' length, where growing them in place
// would leave every doubling on the way as garbage of a kept Plan.
func (s *rankOps) compile(c mpi.Comm, e sched.Emitter, root, n, seg, lo, size int) error {
	p, me := c.Size(), c.Rank()
	scratch := opsPool.Get().(*[]sched.Op)
	*scratch = e((*scratch)[:0], me, p, root, n, seg)
	s.ops = append(s.ops[:0], *scratch...)
	opsPool.Put(scratch)
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
	s.markLate()
	return nil
}

// opsPool holds the scratch compile emits into.
var opsPool = sync.Pool{New: func() any { return new([]sched.Op) }}

// hoisted reports whether op has a receive half manage may post early:
// one of at least hoistFloor bytes that lands as it arrives. A Fold
// receive combines into bytes it must first read, so it runs at its op.
func hoisted(op *sched.Op) bool {
	return op.Kind != sched.OpSend && !op.Fold && op.RecvLen >= hoistFloor
}

// manage lists the hoisted receive halves and gives each its two points:
//
//   - done: the first later op that sends or receives any of its bytes,
//     or the end;
//   - post: the op after the last earlier op that touches its bytes, but
//     no earlier than an earlier receive of them completes, than the
//     previous managed receive posts, or than the op after a receive
//     that is not hoisted, which runs at its op.
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
		if op := &ops[i]; hoisted(op) {
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
			if !hoisted(op) {
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

// span is a byte range [lo, hi) of the rank's window.
type span struct{ lo, hi int }

// markLate lists the ops whose send half runs late: a send of at least
// hoistFloor bytes that comes before the rank's last receive op and
// whose bytes no later op receives into. Started through the
// communicator's Presend, it is never staged, and exec waits for it
// only at the end. Every other send runs at its op: a send after the
// last receive (a broadcast root's, a rank's trailing ones) holds up
// nothing by waiting there, and completing at its op lets the rank run
// ahead into the next call; a send whose bytes a later receive
// overwrites must be gone before that receive is posted.
//
// One pass from the end finds them, keeping the bytes the later ops
// receive into as sorted, disjoint spans. A rank none of whose ops sends
// hoistFloor bytes (a 64 B chunk's ring) has none and builds no spans.
func (s *rankOps) markLate() {
	s.late = s.late[:0]
	if !slices.ContainsFunc(s.ops, func(op sched.Op) bool { return op.Kind != sched.OpRecv && op.SendLen >= hoistFloor }) {
		return
	}
	ops, held, late := s.ops, s.held[:0], s.late
	recvAfter := false // a later op receives
	for i := len(ops) - 1; i >= 0; i-- {
		op := &ops[i]
		if recvAfter && op.Kind != sched.OpRecv && op.SendLen >= hoistFloor && !overlaps(held, op.SendOff, op.SendOff+op.SendLen) {
			late = append(late, i)
		}
		if op.Kind != sched.OpSend {
			recvAfter = true
			if op.RecvLen > 0 {
				held = addSpan(held, op.RecvOff, op.RecvOff+op.RecvLen)
			}
		}
	}
	slices.Reverse(late)
	s.held, s.late = held, late
}

// overlaps reports whether [lo, hi) meets one of the sorted, disjoint
// spans in set.
func overlaps(set []span, lo, hi int) bool {
	j, _ := slices.BinarySearchFunc(set, lo, func(x span, lo int) int { return cmp.Compare(x.hi, lo+1) })
	return j < len(set) && set[j].lo < hi
}

// addSpan merges [lo, hi) into the sorted, disjoint spans in set, joining
// those it overlaps or abuts.
func addSpan(set []span, lo, hi int) []span {
	j, _ := slices.BinarySearchFunc(set, lo, func(x span, lo int) int { return cmp.Compare(x.hi, lo) })
	k, _ := slices.BinarySearchFunc(set, hi, func(x span, hi int) int { return cmp.Compare(x.lo, hi+1) })
	if j < k {
		lo, hi = min(lo, set[j].lo), max(hi, set[k-1].hi)
	}
	return slices.Replace(set, j, k, span{lo, hi})
}

// bindEdges hands a broadcast Plan's edges — a kept Plan's, or one a
// Calls holds — to the communicator's Bind: each (direction, peer, tag)
// of the ops, with how many messages cross it per run and the longest,
// and notes in halves each op's two for Move. The engine carries an
// edge of tiny messages (at most its 1 KiB bind limit) on a ring of
// cells of its own, as many as its rule gives the edge. The edges bound
// before, if any, are released first.
func (s *rankOps) bindEdges(c mpi.Comm) {
	s.releaseEdges()
	scratch := edgesPool.Get().(*[]mpi.Edge)
	edges := (*scratch)[:0]
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
	s.halves = slices.Grow(s.halves[:0], len(s.ops))[:len(s.ops)]
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
	*scratch = edges
	edgesPool.Put(scratch)
}

// edgesPool holds bindEdges' list of edges, which Bind does not keep.
var edgesPool = sync.Pool{New: func() any { return new([]mpi.Edge) }}

// releaseEdges gives back the edges bindEdges bound.
func (s *rankOps) releaseEdges() {
	if s.bound != nil {
		s.bound.Release()
		s.bound = nil
	}
}

// exec runs the compiled operations on c, or on its engaged binding mv,
// moving real bytes in buf (which compile or the caller has checked
// covers every op), and then waits for the late sends they started —
// after an error too, since until then a receiver may still copy out of
// buf.
func (s *rankOps) exec(c mpi.Comm, mv mpi.Binding, buf []byte) error {
	err := s.run(c, mv, buf)
	if len(s.late) > 0 {
		if werr := c.WaitPresends(); err == nil && werr != nil {
			err = fmt.Errorf("rank %d: late send: %w", c.Rank(), werr)
		}
	}
	return err
}

// run is exec's loop. A rank with no managed receive runs the ops one by
// one. Otherwise the loop, before op i, completes the receives due
// there, posts the ones due there, and runs op i: only its send half if
// its receive is posted. Either way a late send half only starts.
func (s *rankOps) run(c mpi.Comm, mv mpi.Binding, buf []byte) error {
	ops, late := s.ops, 0
	// isLate reports whether op i's send half is late, stepping past it.
	isLate := func(i int) bool {
		if late < len(s.late) && s.late[late] == i {
			late++
			return true
		}
		return false
	}
	if len(s.recvs) == 0 {
		for i := range ops {
			if err := s.execOp(c, mv, i, &ops[i], buf, false, isLate(i)); err != nil {
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
				if err = checkCount(st, err, ops[e.op].RecvLen); err != nil {
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
		if err := s.execOp(c, mv, i, &ops[i], buf, early, isLate(i)); err != nil {
			return opError(c, i, &ops[i], err)
		}
	}
}

// execOp runs op i (op is &s.ops[i]), blocking until its halves are
// done; with early set, its receive half was posted ahead and only its
// send half runs; with late set, its send half is started through
// Presend and left to exec's wait, unless the communicator declines.
// What it needs of op is read before it blocks.
func (s *rankOps) execOp(c mpi.Comm, mv mpi.Binding, i int, op *sched.Op, buf []byte, early, late bool) error {
	if op.Fold {
		return s.foldOp(c, op, buf)
	}
	send, recv := op.Kind != sched.OpRecv, op.Kind != sched.OpSend && !early
	want := op.RecvLen
	var sb, rb []byte
	if send {
		sb = buf[op.SendOff : op.SendOff+op.SendLen]
		send = !late || !c.Presend(sb, op.To, op.Tag)
	}
	if recv {
		rb = buf[op.RecvOff : op.RecvOff+op.RecvLen]
	}
	var st mpi.Status
	var err error
	switch {
	case mv != nil && (send || recv):
		h := s.halves[i]
		if !send {
			h[0] = -1
		}
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
	return checkCount(st, err, want)
}

// foldOp runs a Fold receive, which only the Plans of Reduce and
// Allreduce carry, never a broadcast's bound edges: its bytes arrive in
// pooled scratch and s.red combines them into their range of buf, both
// viewed as float64s. On an error the world aborted and the sender may
// still be copying, so the scratch is abandoned to the GC rather than
// recycled.
func (s *rankOps) foldOp(c mpi.Comm, op *sched.Op, buf []byte) error {
	in := bufpool.Get(op.RecvLen)
	st, err := c.Recv(in.B, op.From, op.Tag)
	if err = checkCount(st, err, op.RecvLen); err != nil {
		return err
	}
	s.red.combine(buf[op.RecvOff:op.RecvOff+op.RecvLen], in.B)
	in.Release()
	return nil
}

// checkCount holds a completed receive to the byte count its op expects.
func checkCount(st mpi.Status, err error, want int) error {
	if err == nil && st.Count != want {
		err = fmt.Errorf("received %d bytes, schedule says %d", st.Count, want)
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

// ExecProgram executes the calling rank's portion of an already
// generated communication schedule against the communicator, moving real
// bytes in buf — the same executor the registry runs, for programs that
// do not come from a registry row (extensions like the node-aware
// ring, hand-built test programs). The rank's ops are checked
// against (pr.P, pr.N, rank) first, so a malformed program fails with
// ErrBadOp instead of panicking inside a rank body; so is a Fold
// receive, which only a reduction's float64 vector can combine.
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
	if i := slices.IndexFunc(p.ops.ops, func(op sched.Op) bool { return op.Fold }); i >= 0 {
		return fmt.Errorf("collective: exec: %w: rank %d op %d (%s): a Fold receive runs only in a reduction", ErrBadOp, c.Rank(), i, &p.ops.ops[i])
	}
	if err := p.ops.exec(c, nil, buf); err != nil {
		return fmt.Errorf("collective: exec %q: %w", pr.Name, err)
	}
	return nil
}
