package collective

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// This file is the one place a broadcast touches the wire. Every
// broadcast is a sched.Emitter (internal/core); the executor asks it for
// the calling rank's operations, checks them, and runs them in order on
// the communicator. The verifier, the simulator and the tuner consume
// the very same emitter through sched.Generate, so what is verified is
// what runs.

// ErrBadOp reports a schedule operation that cannot be executed by the
// calling rank: an unknown kind, a peer outside the communicator (or the
// rank itself), or a byte range outside the buffer.
var ErrBadOp = errors.New("malformed schedule op")

// rankOps is one rank's compiled schedule and the executor's scratch. It
// lives in a Plan — kept by a persistent handle, borrowed from planPool
// per call — so steady-state execution allocates nothing either way.
type rankOps struct {
	ops  []sched.Op
	reqs []mpi.Request // operations in flight within one overlapped step
}

// compile replaces s.ops with the calling rank's operations for an
// n-byte broadcast from root and checks each against (size, n, rank).
// It costs O(own ops): no rank ever builds another rank's list.
func (s *rankOps) compile(c mpi.Comm, e sched.Emitter, root, n, seg int) error {
	p, me := c.Size(), c.Rank()
	s.ops = e(s.ops[:0], me, p, root, n, seg)
	if err := checkOps(s.ops, p, n, me); err != nil {
		return fmt.Errorf("collective: exec: %w", err)
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
// mode runs them one by one. Overlap mode — the "-nb" registry rows —
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
			err = s.execOverlapped(c, ops[i:j], buf)
		} else {
			err = execOp(c, &ops[i], buf)
		}
		if err != nil {
			return fmt.Errorf("rank %d op %d (%s): %w", c.Rank(), i, ops[i], err)
		}
		i = j
	}
	return nil
}

func execOp(c mpi.Comm, op *sched.Op, buf []byte) error {
	var st mpi.Status
	var err error
	switch op.Kind {
	case sched.OpSend:
		return c.Send(buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag)
	case sched.OpRecv:
		st, err = c.Recv(buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
	case sched.OpSendrecv:
		st, err = c.Sendrecv(
			buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag,
			buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
	}
	if err == nil && st.Count != op.RecvLen {
		err = fmt.Errorf("received %d bytes, schedule says %d", st.Count, op.RecvLen)
	}
	return err
}

// execOverlapped runs the ops of one ring step with every transfer in
// flight at once. The step boundary is a genuine dependency (the next
// step forwards what this one received), so it waits for everything.
func (s *rankOps) execOverlapped(c mpi.Comm, step []sched.Op, buf []byte) error {
	reqs := s.reqs[:0]
	for i := range step {
		if op := &step[i]; op.Kind != sched.OpSend {
			req, err := c.Irecv(buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
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
	// Receives were posted first, in op order: reqs[k] is the k-th
	// receiving op's.
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
// (a one-rank communicator sends nothing and draws none).
func (s *rankOps) run(c mpi.Comm, buf []byte, overlap bool) error {
	if c.Size() > 1 {
		mpi.AdvanceTagStream(c)
	}
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
