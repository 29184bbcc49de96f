package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
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
		if err := runStatic(c, make([]byte, 8), 0, 8, 0, 0, outOfRange); !errors.Is(err, ErrBadOp) {
			return fmt.Errorf("want ErrBadOp, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gridTopologies are the placements a row's schedule is checked on at p
// ranks. A row whose pattern ignores the node map runs on one node; a
// topology-composed row on every multi-node shape — blocked nodes,
// round-robin nodes, and an irregular map whose nodes are interleaved and
// unevenly filled, so the swept roots include non-leaders — plus the one
// node its capabilities refuse.
func gridTopologies(t *testing.T, r Registration, p int) []*topology.Map {
	t.Helper()
	if r.TopoOps == nil {
		return []*topology.Map{topology.SingleNode(p)}
	}
	irregular, err := topology.Custom([]int{0, 1, 1, 0, 2, 0, 1, 2, 2, 0, 1, 0, 0, 1, 2, 2}[:p])
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Map{topology.SingleNode(p), topology.Blocked(p, 4), topology.RoundRobin(p, 3), irregular}
}

// TestStaticRowsRunTheirSchedule is the one conformance table for "the
// engine runs the schedule": for every registry row, across communicator
// sizes, placements (see gridTopologies), roots, message sizes (empty,
// one byte, not divisible by p, several segments per chunk) and segment
// sizes (the row's default, one byte short of a chunk, a whole chunk), it
// asserts
//
//   - the generated program verifies: deadlock-free, no transfer of bytes
//     the sender does not hold, every rank ends with the whole buffer;
//   - a traced run on the real engine leaves every rank byte-identical
//     to the root (each rank starts from its own garbage);
//   - the traced messages and bytes equal Program.Stats();
//   - for the unsegmented rings, the traced ring phase equals the
//     closed-form counts of core/traffic.go — an oracle that shares no
//     code with the emitters;
//   - for the SMP rows, the traced intra-/inter-node split equals the
//     closed form of the three phases (what the Split-based
//     implementation this schedule replaced moved): one whole-buffer tree
//     message per non-leader, all inside nodes, and the leaders' scatter
//     and ring, all between them;
//   - where the row's capabilities refuse the environment, Schedule and
//     RunDecision both say so.
func TestStaticRowsRunTheirSchedule(t *testing.T) {
	for _, r := range Algorithms() {
		for _, p := range []int{1, 2, 3, 7, 8, 10, 16} {
			for _, topo := range gridTopologies(t, r, p) {
				for _, n := range []int{0, 1, 10*p + 3, 3*p*core.DefaultChainSegment + 5} {
					chunk := core.NewLayout(n, p).ScatterSize
					segs := []int{0}
					if r.Caps.Segmented {
						segs = []int{0, max(chunk-1, 1), max(chunk, 1)}
					}
					for _, root := range []int{0, p / 2, p - 1}[:min(p, 3)] {
						for _, seg := range segs {
							label := fmt.Sprintf("%s/%s/n=%d/root=%d/seg=%d", r.Name, topo, n, root, seg)
							d := tune.Decision{Algorithm: r.Name, SegSize: seg}
							opts := engine.Options{NP: p, Topology: topo, Timeout: time.Minute}
							pr, err := r.Schedule(topo, root, n, seg)
							if !r.Caps.Match(tune.EnvOf(n, p, topo)) {
								assertRefused(t, label, opts, d, err)
								continue
							}
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if _, err := sched.Verify(pr, sched.VerifyConfig{WantFinal: sched.FullBuffer(n)}); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							got := tracedDecision(t, opts, d, root, n)
							want := pr.Stats()
							if got.Total.Messages != int64(want.Messages) || got.Total.Bytes != int64(want.Bytes) || got.Recvs != got.Total.Messages {
								t.Fatalf("%s: traced %d msgs / %d B / %d recvs, schedule says %d msgs / %d B",
									label, got.Total.Messages, got.Total.Bytes, got.Recvs, want.Messages, want.Bytes)
							}
							switch leaders := topo.NumNodes(); r.Name {
							case tune.RingNative:
								assertRingTraffic(t, label, got, core.RingTrafficNative(p, n))
							case tune.RingOpt:
								assertRingTraffic(t, label, got, core.RingTrafficTuned(p, n))
							case tune.SMP:
								assertSMPSplit(t, label, got, p, n, leaders, core.RingTrafficNative(leaders, n))
							case tune.SMPOpt:
								assertSMPSplit(t, label, got, p, n, leaders, core.RingTrafficTuned(leaders, n))
							}
						}
					}
				}
			}
		}
	}
}

// assertRefused: a row outside its capabilities has no schedule
// (scheduleErr) and does not run.
func assertRefused(t *testing.T, label string, opts engine.Options, d tune.Decision, scheduleErr error) {
	t.Helper()
	if scheduleErr == nil {
		t.Fatalf("%s: Schedule ignored the row's capabilities", label)
	}
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		if err := RunDecision(c, nil, 0, d); err == nil || !strings.Contains(err.Error(), "cannot run") {
			return fmt.Errorf("RunDecision: %v, want the capability error", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func assertSMPSplit(t *testing.T, label string, got trace.Stats, p, n, leaders int, ring core.Traffic) {
	t.Helper()
	scatter := core.ScatterTraffic(leaders, n)
	wantInter := trace.Counts{Messages: int64(scatter.Messages + ring.Messages), Bytes: int64(scatter.Bytes + ring.Bytes)}
	wantIntra := trace.Counts{Messages: int64(p - leaders), Bytes: int64((p - leaders) * n)}
	if got.Intra != wantIntra || got.Inter != wantInter {
		t.Fatalf("%s: traced intra %+v inter %+v, the three phases move %+v / %+v", label, got.Intra, got.Inter, wantIntra, wantInter)
	}
}

func assertRingTraffic(t *testing.T, label string, got trace.Stats, want core.Traffic) {
	t.Helper()
	if ring := got.ByTag[core.TagRing]; ring.Messages != int64(want.Messages) || ring.Bytes != int64(want.Bytes) {
		t.Fatalf("%s: traced ring phase %+v, closed form %+v", label, ring, want)
	}
}
