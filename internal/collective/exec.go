package collective

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// This file is the one place a broadcast touches the wire. Every
// broadcast is a sched.Emitter (internal/core); the executor asks it for
// the calling rank's operations, checks them, and runs them in order on
// the communicator. The verifier, the simulator and the tuner consume
// the very same emitter through sched.Generate, so what is verified is
// what runs.
//
// One thing runs out of order, and only when the result cannot tell: a
// receive whose bytes no earlier op of the rank touches depends on
// nothing the rank does first, so when the communicator can (the
// mpi.Preposter capability) the executor posts it as the collective
// starts — the longest prefix of such receives of at least hoistFloor
// bytes (see hoist). The sender's message then finds it waiting and is
// copied once, straight into place, instead of staged in the receiver's
// queue and copied again. The requests those receives complete into
// belong to the rankOps: the communicator re-arms each completed one on
// the next run, so a kept or pooled Plan posts them without allocating.

// ErrBadOp reports a schedule operation that cannot be executed by the
// calling rank: an unknown kind, a peer outside the communicator (or the
// rank itself), or a byte range outside the buffer.
var ErrBadOp = errors.New("malformed schedule op")

// hoistFloor is the smallest receive the executor posts at entry. Below
// it early posting loses: a rank posts all its receives before its first
// send, and a message delivered into a posted receive costs a channel
// hand-off that outweighs the second copy of so few bytes. An on/off
// sweep of per-call ring-opt at np 10 and 64, back to back and
// barrier-separated, lost 6–21 % at 4 KiB chunks (more below) and nothing
// beyond noise from 8 KiB up (CHANGES.md, ISSUE 25).
const hoistFloor = 8 << 10

// rankOps is one rank's compiled schedule and the executor's scratch. It
// lives in a Plan — kept by a persistent handle, borrowed from planPool
// per call — so steady-state execution allocates nothing either way.
type rankOps struct {
	ops  []sched.Op
	reqs []mpi.Request // operations in flight within one overlapped step
	// pre[i] is op i's receive when compile hoisted it; len(pre) is one
	// past the last hoisted op.
	pre     []early
	touched sched.IntervalSet // hoist's scratch
}

// early is a hoisted receive: the request the communicator posts it into
// (kept across runs to be re-armed) and whether this run posted it — the
// communicator may decline, and then the receive is posted at its op.
type early struct {
	req mpi.Request
	on  bool
}

// compile replaces s.ops with the calling rank's operations for an
// n-byte broadcast from root, checks each against (size, n, rank) and
// marks the receives to post at entry. It costs O(own ops): no rank ever
// builds another rank's list.
func (s *rankOps) compile(c mpi.Comm, e sched.Emitter, root, n, seg int) error {
	p, me := c.Size(), c.Rank()
	s.ops = e(s.ops[:0], me, p, root, n, seg)
	if err := checkOps(s.ops, p, n, me); err != nil {
		return fmt.Errorf("collective: exec: %w", err)
	}
	s.hoist()
	return nil
}

// hoist marks the longest prefix, in op order, of the rank's receive
// halves that are at least hoistFloor bytes and disjoint from every byte
// an earlier op of the rank sends or receives. Posting those at entry
// changes no result: nothing before their op reads or writes their bytes,
// and matching is blocking execution's — receives sharing a (source, tag)
// are still posted in op order, the hoisted ones first. The disjointness
// test is what leaves the native ring's re-receipt of chunks the scatter
// delivered, and the SMP rows' overlapping phases, at their own op.
func (s *rankOps) hoist() {
	// The first receive below the floor ends the prefix at the latest, so
	// bytes need recording only up to the last receive ahead of it: a rank
	// with none (a root, a rank of small chunks) records nothing.
	last := -1
	for i := range s.ops {
		if op := &s.ops[i]; op.Kind != sched.OpSend {
			if op.RecvLen < hoistFloor {
				break
			}
			last = i
		}
	}
	s.touched.Reset()
	end := 0
	for i := 0; i <= last; i++ {
		op := &s.ops[i]
		if op.Kind != sched.OpSend {
			if s.touched.Overlaps(op.RecvOff, op.RecvOff+op.RecvLen) {
				break
			}
			end = i + 1
			s.touched.Add(op.RecvOff, op.RecvOff+op.RecvLen)
		}
		if op.Kind != sched.OpRecv {
			s.touched.Add(op.SendOff, op.SendOff+op.SendLen)
		}
	}
	// Keep the requests already in the backing array for re-arming.
	s.pre = slices.Grow(s.pre[:0], end)[:end]
}

// prepost posts the hoisted receives, when c can.
func (s *rankOps) prepost(c mpi.Comm, buf []byte) {
	pp, _ := c.(mpi.Preposter)
	for i := range s.pre {
		e, op := &s.pre[i], &s.ops[i]
		e.on = false
		if pp != nil && op.Kind != sched.OpSend {
			e.req, e.on = pp.Prepost(e.req, buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
		}
	}
}

// posted returns op i's receive request when this run posted it at
// entry, nil when the op posts its own.
func (s *rankOps) posted(i int) mpi.Request {
	if i < len(s.pre) && s.pre[i].on {
		return s.pre[i].req
	}
	return nil
}

func checkOps(ops []sched.Op, p, n, self int) error {
	for i := range ops {
		if err := ops[i].Check(p, n, self); err != nil {
			return fmt.Errorf("%w: rank %d op %d (%s): %v", ErrBadOp, self, i, ops[i], err)
		}
	}
	return nil
}

// exec runs the compiled operations on c, moving real bytes in buf
// (which compile or the caller has checked covers every op). Blocking
// mode runs them one by one; an op whose receive prepost posted waits for
// it there (after its send half, for a Sendrecv — the order Sendrecv
// waits in). Overlap mode — the "-nb" registry rows —
// runs the same operations, but treats the run of ops sharing one ring
// step (Step >= 1) as a unit: every receive half is posted, every send
// half is started, then all are awaited, so segment k+1's receive is
// already posted while segment k forwards. Per (source, destination,
// tag) non-overtaking order makes the traffic message-for-message the
// blocking mode's. It is only sound for schedules whose sends within a
// step do not carry bytes received in that same step, which holds for
// the rings and not for the scatter (Step 0, always blocking) or the
// chain.
func (s *rankOps) exec(c mpi.Comm, buf []byte, overlap bool) error {
	ops := s.ops
	for i := 0; i < len(ops); {
		j := i + 1
		var err error
		if overlap && ops[i].Step >= 1 {
			for j < len(ops) && ops[j].Step == ops[i].Step {
				j++
			}
			err = s.execOverlapped(c, i, j, buf)
		} else {
			err = execOp(c, &ops[i], buf, s.posted(i))
		}
		if err != nil {
			return fmt.Errorf("rank %d op %d (%s): %w", c.Rank(), i, ops[i], err)
		}
		i = j
	}
	return nil
}

// execOp runs one op; pre is its receive when that was posted at entry.
func execOp(c mpi.Comm, op *sched.Op, buf []byte, pre mpi.Request) error {
	var st mpi.Status
	var err error
	switch {
	case pre != nil:
		if op.Kind == sched.OpSendrecv {
			if err := c.Send(buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag); err != nil {
				return err
			}
		}
		st, err = pre.Wait()
	case op.Kind == sched.OpSend:
		return c.Send(buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag)
	case op.Kind == sched.OpRecv:
		st, err = c.Recv(buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
	case op.Kind == sched.OpSendrecv:
		st, err = c.Sendrecv(
			buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag,
			buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
	}
	if err == nil && st.Count != op.RecvLen {
		err = fmt.Errorf("received %d bytes, schedule says %d", st.Count, op.RecvLen)
	}
	return err
}

// execOverlapped runs ops [lo, hi), one ring step, with every transfer in
// flight at once; a receive prepost posted is waited, not posted again.
// The step boundary is a genuine dependency (the next step forwards what
// this one received), so it waits for everything.
func (s *rankOps) execOverlapped(c mpi.Comm, lo, hi int, buf []byte) error {
	step := s.ops[lo:hi]
	reqs := s.reqs[:0]
	for i := range step {
		op := &step[i]
		if op.Kind == sched.OpSend {
			continue
		}
		req := s.posted(lo + i)
		if req == nil {
			var err error
			if req, err = c.Irecv(buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag); err != nil {
				return err
			}
		}
		reqs = append(reqs, req)
	}
	for i := range step {
		if op := &step[i]; op.Kind != sched.OpRecv {
			req, err := c.Isend(buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
	}
	// Receives come first, in op order: reqs[k] is the k-th receiving
	// op's.
	var first error
	k := 0
	for i := range step {
		if op := &step[i]; op.Kind != sched.OpSend {
			st, err := reqs[k].Wait()
			if err == nil && st.Count != op.RecvLen {
				err = fmt.Errorf("received %d bytes, schedule says %d", st.Count, op.RecvLen)
			}
			if err != nil && first == nil {
				first = err
			}
			k++
		}
	}
	for ; k < len(reqs); k++ {
		if _, err := reqs[k].Wait(); err != nil && first == nil {
			first = err
		}
	}
	s.reqs = reqs[:0]
	return first
}

func checkRoot(c mpi.Comm, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("collective: %w: root %d (size %d)", mpi.ErrRank, root, c.Size())
	}
	return nil
}

// runStatic broadcasts buf from root with the algorithm e describes:
// emit the calling rank's ops into a pooled Plan's scratch, check them,
// advance the communicator's tag stream and run. It is a Plan without
// selection, capability check or span, for collectives that embed a
// fixed broadcast (the allreduce tail).
func runStatic(c mpi.Comm, buf []byte, root, seg int, e sched.Emitter, overlap bool) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	p := planPool.Get().(*Plan)
	defer planPool.Put(p)
	if err := p.ops.compile(c, e, root, len(buf), seg); err != nil {
		return err
	}
	return p.ops.run(c, buf, overlap)
}

// run is exec behind the per-operation tag stream every collective draws
// (a one-rank communicator sends nothing and draws none), with the
// hoisted receives posted on that stream first.
func (s *rankOps) run(c mpi.Comm, buf []byte, overlap bool) error {
	if c.Size() > 1 {
		mpi.AdvanceTagStream(c)
	}
	s.prepost(c, buf)
	if err := s.exec(c, buf, overlap); err != nil {
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
	s := rankOps{ops: pr.OpsOf(c.Rank())}
	if err := checkOps(s.ops, pr.P, pr.N, c.Rank()); err != nil {
		return fmt.Errorf("collective: exec %q: %w", pr.Name, err)
	}
	if err := s.exec(c, buf, false); err != nil {
		return fmt.Errorf("collective: exec %q: %w", pr.Name, err)
	}
	return nil
}
