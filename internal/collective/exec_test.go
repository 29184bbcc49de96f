package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
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
				core.BcastNativeProgram(p, root, n),
				core.BcastOptProgram(p, root, n),
				core.BinomialBcast(p, root, n),
				core.ChainBcast(p, root, n, 64),
			}
			if core.IsPow2(p) {
				programs = append(programs, core.BcastRdbProgram(p, root, n))
			}
			for _, pr := range programs {
				runProgram(t, pr, engine.Options{NP: p})
			}
		}
	}
}

func TestExecNodeAwareProgramOnEngine(t *testing.T) {
	topo := topology.RoundRobin(9, 3)
	pr, err := core.BcastOptNodeAware(topo, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	runProgram(t, pr, engine.Options{NP: 9, Topology: topo})
}

func TestExecValidation(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		pr := core.BinomialBcast(3, 0, 8) // wrong size
		if err := ExecProgram(c, pr, make([]byte, 8)); err == nil {
			return fmt.Errorf("rank-count mismatch must fail")
		}
		pr2 := core.BinomialBcast(2, 0, 8)
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
		if err := runStatic(c, make([]byte, 8), 0, 0, outOfRange, false); !errors.Is(err, ErrBadOp) {
			return fmt.Errorf("want ErrBadOp, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStaticRowsRunTheirSchedule is the one conformance table for "the
// engine runs the schedule": for every registry row that has a Program,
// across communicator sizes, roots, message sizes (empty, one byte, not
// divisible by p, several segments per chunk) and segment sizes (the
// row's default, one byte short of a chunk, a whole chunk), it asserts
//
//   - the generated program verifies: deadlock-free, no transfer of bytes
//     the sender does not hold, every rank ends with the whole buffer;
//   - a traced run on the real engine leaves every rank byte-identical
//     to the root (each rank starts from its own garbage);
//   - the traced messages and bytes equal Program.Stats();
//   - for the unsegmented rings, the traced ring phase equals the
//     closed-form counts of core/traffic.go — an oracle that shares no
//     code with the emitters;
//   - an overlap ("-nb") row's trace equals its blocking row's, tag by
//     tag: overlap changes when operations are posted, never what is sent.
func TestStaticRowsRunTheirSchedule(t *testing.T) {
	blockingTrace := map[string]trace.Stats{}
	for _, r := range Algorithms() { // sorted: "x" runs before "x-nb"
		if r.Program == nil {
			continue
		}
		for _, p := range []int{1, 2, 3, 7, 8, 10, 16} {
			for _, n := range []int{0, 1, 10*p + 3, 3*p*core.DefaultChainSegment + 5} {
				chunk := core.NewLayout(n, p).ScatterSize
				segs := []int{0}
				if r.Caps.Segmented {
					segs = []int{0, max(chunk-1, 1), max(chunk, 1)}
				}
				for _, root := range []int{0, p / 2, p - 1}[:min(p, 3)] {
					for _, seg := range segs {
						e := tune.Env{Bytes: n, Procs: p, NumNodes: 1}
						if !r.Caps.Match(e) {
							continue
						}
						label := fmt.Sprintf("%s/p=%d/n=%d/root=%d/seg=%d", r.Name, p, n, root, seg)
						pr, err := r.Program(p, root, n, seg)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if _, err := sched.Verify(pr, sched.VerifyConfig{WantFinal: sched.FullBuffer(n)}); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got := tracedDecision(t, engine.Options{NP: p, Timeout: time.Minute},
							tune.Decision{Algorithm: r.Name, SegSize: seg}, root, n)
						want := pr.Stats()
						if got.Total.Messages != int64(want.Messages) || got.Total.Bytes != int64(want.Bytes) || got.Recvs != got.Total.Messages {
							t.Fatalf("%s: traced %d msgs / %d B / %d recvs, schedule says %d msgs / %d B",
								label, got.Total.Messages, got.Total.Bytes, got.Recvs, want.Messages, want.Bytes)
						}
						switch r.Name {
						case tune.RingNative:
							assertRingTraffic(t, label, got, core.RingTrafficNative(p, n))
						case tune.RingOpt:
							assertRingTraffic(t, label, got, core.RingTrafficTuned(p, n))
						}
						key := strings.TrimPrefix(label, r.Name)
						if !r.Overlap {
							blockingTrace[r.Name+key] = got
						} else if blk, ok := blockingTrace[strings.TrimSuffix(r.Name, "-nb")+key]; !ok || !reflect.DeepEqual(got, blk) {
							t.Fatalf("%s: overlap trace %+v != blocking row's %+v (found=%v)", label, got, blk, ok)
						}
					}
				}
			}
		}
	}
}

func assertRingTraffic(t *testing.T, label string, got trace.Stats, want core.Traffic) {
	t.Helper()
	if ring := got.ByTag[core.TagRing]; ring.Messages != int64(want.Messages) || ring.Bytes != int64(want.Bytes) {
		t.Fatalf("%s: traced ring phase %+v, closed form %+v", label, ring, want)
	}
}
