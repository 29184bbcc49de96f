package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/tune"
)

// runProgram executes a generated schedule on the real engine and checks
// the broadcast postcondition.
func runProgram(t *testing.T, pr *sched.Program, opts engine.Options) {
	t.Helper()
	want := pattern(pr.N)
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		buf := make([]byte, pr.N)
		if c.Rank() == pr.Root {
			copy(buf, want)
		}
		if err := ExecProgram(c, pr, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch at %d", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pr.Name, err)
	}
}

// TestExecGeneratedPrograms runs every schedule generator's output on the
// real engine — the schedule world and the executable world must move
// identical bytes.
func TestExecGeneratedPrograms(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 10, 16} {
		for _, root := range []int{0, p - 1} {
			n := 32*p + 3
			programs := []*sched.Program{
				sched.Generate("bcast-native", core.BcastNativeOps, p, root, n, 0),
				sched.Generate("bcast-opt", core.BcastOptOps, p, root, n, 0),
				sched.Generate("binomial-bcast", core.BinomialOps, p, root, n, 0),
				sched.Generate("chain-bcast", core.ChainOps, p, root, n, 64),
			}
			if core.IsPow2(p) {
				programs = append(programs, sched.Generate("bcast-scatter-rdb", core.BcastRdbOps, p, root, n, 0))
			}
			for _, pr := range programs {
				runProgram(t, pr, engine.Options{NP: p})
			}
		}
	}
}

func TestExecNodeAwareProgramOnEngine(t *testing.T) {
	topo := topology.RoundRobin(9, 3)
	pr := sched.Generate("bcast-opt-nodeaware", core.NodeAwareOps(topo, core.BcastOptOps), topo.NP(), 4, 300, 0)
	runProgram(t, pr, engine.Options{NP: 9, Topology: topo})
}

func TestExecValidation(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		pr := sched.Generate("binomial-bcast", core.BinomialOps, 3, 0, 8, 0) // wrong size
		if err := ExecProgram(c, pr, make([]byte, 8)); err == nil {
			return fmt.Errorf("rank-count mismatch must fail")
		}
		pr2 := sched.Generate("binomial-bcast", core.BinomialOps, 2, 0, 8, 0)
		if err := ExecProgram(c, pr2, make([]byte, 4)); err == nil {
			return fmt.Errorf("short buffer must fail")
		}
		// One bad op in the calling rank's list must be refused before
		// anything is sent — with a named error, not a slice panic in the
		// rank body. Both ranks hold the same bad op, so neither starts.
		peer := 1 - c.Rank()
		bad := map[string]sched.Op{
			"send offset past the buffer": {Kind: sched.OpSend, To: peer, SendOff: 6, SendLen: 4},
			"recv offset past the buffer": {Kind: sched.OpRecv, From: peer, RecvOff: 9, RecvLen: 0},
			"negative send length":        {Kind: sched.OpSend, To: peer, SendOff: 4, SendLen: -2},
			"negative recv length":        {Kind: sched.OpSendrecv, To: peer, From: peer, RecvLen: -1},
			"negative offset":             {Kind: sched.OpRecv, From: peer, RecvOff: -1, RecvLen: 1},
			"length overflows the offset": {Kind: sched.OpSend, To: peer, SendOff: 1, SendLen: math.MaxInt},
			"destination >= P":            {Kind: sched.OpSend, To: 2, SendLen: 8},
			"negative source":             {Kind: sched.OpRecv, From: -1, RecvLen: 8},
			"self send":                   {Kind: sched.OpSend, To: c.Rank(), SendLen: 8},
			"self receive":                {Kind: sched.OpSendrecv, To: peer, From: c.Rank(), SendLen: 8, RecvLen: 8},
			"unknown kind":                {Kind: sched.OpSendrecv + 1, To: peer, From: peer},
			"fold on a send":              {Kind: sched.OpSend, To: peer, SendLen: 8, Fold: true},
			"fold on a sendrecv":          {Kind: sched.OpSendrecv, To: peer, From: peer, SendLen: 8, RecvLen: 8, Fold: true},
			"fold on a recv":              {Kind: sched.OpRecv, From: peer, RecvLen: 8, Fold: true},
		}
		for name, op := range bad {
			op.Tag = core.TagBinomial
			pr := sched.New("bad", 2, 8, 0)
			pr.Add(0, op)
			pr.Add(1, op)
			if err := ExecProgram(c, pr, make([]byte, 8)); !errors.Is(err, ErrBadOp) {
				return fmt.Errorf("%s: want ErrBadOp, got %v", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompileRejectsBadEmitter: the per-call and persistent paths check
// emitted ops where they compile them, so a broken generator behind a
// registry row fails the same named way.
func TestCompileRejectsBadEmitter(t *testing.T) {
	outOfRange := func(dst []sched.Op, rank, p, root, n, seg int) []sched.Op {
		return append(dst, sched.Op{Kind: sched.OpSend, To: (rank + 1) % p, SendOff: n, SendLen: 1})
	}
	err := engine.Run(2, func(c mpi.Comm) error {
		if err := uncached.run(c, opBcast, outOfRange, tune.Decision{}, make([]byte, 8), 0, 8, 0, OpSum); !errors.Is(err, ErrBadOp) {
			return fmt.Errorf("want ErrBadOp, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
