package netsim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// flatModel returns simple round-number parameters for hand computation.
func flatModel() *Model {
	return &Model{
		Name:           "flat",
		SendOverhead:   1,   // 1 s: easy arithmetic
		RecvOverhead:   2,   //
		IntraLatency:   10,  //
		IntraBandwidth: 100, // bytes/s
		MemChannels:    2,   //
		InterLatency:   50,  //
		InterBandwidth: 10,  // bytes/s
		EagerLimit:     100, //
		CacheBytes:     0,   // disabled
	}
}

func sendRecvProgram(n int) *sched.Program {
	pr := sched.New("pair", 2, n, 0)
	pr.Add(0, sched.Op{Kind: sched.OpSend, To: 1, SendOff: 0, SendLen: n, Tag: 1})
	pr.Add(1, sched.Op{Kind: sched.OpRecv, From: 0, RecvOff: 0, RecvLen: n, Tag: 1})
	return pr
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v want %v", name, got, want)
	}
}

func TestEagerIntraHandComputed(t *testing.T) {
	// n=100 <= eager limit. Sender: copy-in starts at o_send=1, lasts
	// 100/100 = 1 s -> sendDone = 2; ready = 2 + 10 = 12.
	// Receiver: copy-out at max(0, 12) for 1 s -> 13; +o_recv=2 -> 15.
	res, err := Simulate(sendRecvProgram(100), topology.SingleNode(2), flatModel())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "sender finish", res.Finish[0], 2)
	approx(t, "receiver finish", res.Finish[1], 15)
	approx(t, "makespan", res.Makespan, 15)
	if res.Messages != 1 || res.InterMessages != 0 {
		t.Fatalf("counts: %+v", res)
	}
}

func TestRendezvousIntraHandComputed(t *testing.T) {
	// n=200 > eager limit. senderReach = 1. Receiver posts at 0.
	// Handshake: max(1+10, 0) + 10 = 21. Copy 200/100 = 2 s -> 23.
	// senderDone = 23; recvDone = 23 + 2 = 25.
	res, err := Simulate(sendRecvProgram(200), topology.SingleNode(2), flatModel())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "sender finish", res.Finish[0], 23)
	approx(t, "receiver finish", res.Finish[1], 25)
}

func TestEagerInterHandComputed(t *testing.T) {
	// Ranks on different nodes, n=100 eager.
	// Injection: starts 1, lasts 100/10=10 -> sendDone 11.
	// Arrival = 11 + 50 = 61; extraction 10 s -> ready 71.
	// Receiver copy-out 100/100=1 -> 72; +2 -> 74.
	topo, err := topology.Custom([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sendRecvProgram(100), topo, flatModel())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "sender finish", res.Finish[0], 11)
	approx(t, "receiver finish", res.Finish[1], 74)
	if res.InterMessages != 1 {
		t.Fatalf("inter messages = %d", res.InterMessages)
	}
}

func TestRendezvousInterHandComputed(t *testing.T) {
	// n=200 rendezvous across nodes. senderReach=1; handshake:
	// max(1+50, 0)+50 = 101. Injection 200/10=20 -> 121 (senderDone).
	// Arrival 121+50=171; extraction 20 -> 191; +o_recv=2 -> 193.
	topo, err := topology.Custom([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sendRecvProgram(200), topo, flatModel())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "sender finish", res.Finish[0], 121)
	approx(t, "receiver finish", res.Finish[1], 193)
}

func TestNICInjectionContention(t *testing.T) {
	// Two ranks on node 0 send 100 eager bytes to two ranks on node 1 at
	// the same time: injections serialize on node 0's NIC (10 s each),
	// extractions on node 1's NIC.
	topo, err := topology.Custom([]int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	pr := sched.New("2pairs", 4, 100, 0)
	pr.Add(0, sched.Op{Kind: sched.OpSend, To: 2, SendLen: 100, Tag: 1})
	pr.Add(1, sched.Op{Kind: sched.OpSend, To: 3, SendLen: 100, Tag: 1})
	pr.Add(2, sched.Op{Kind: sched.OpRecv, From: 0, RecvLen: 100, Tag: 1})
	pr.Add(3, sched.Op{Kind: sched.OpRecv, From: 1, RecvLen: 100, Tag: 1})

	m := flatModel()
	res, err := Simulate(pr, topo, m)
	if err != nil {
		t.Fatal(err)
	}
	// First injection 1..11, second 11..21: the slower sender finishes
	// at 21 (serialized), not 11 (parallel).
	slow := math.Max(res.Finish[0], res.Finish[1])
	approx(t, "serialized second injection", slow, 21)

	m.NoContention = true
	res2, err := Simulate(pr, topo, m)
	if err != nil {
		t.Fatal(err)
	}
	slow2 := math.Max(res2.Finish[0], res2.Finish[1])
	approx(t, "parallel injections without contention", slow2, 11)
}

func TestMemChannelContention(t *testing.T) {
	// Four concurrent intra-node eager copies, MemChannels=2: the copies
	// (1 s each) pack two per slot -> senders finish at 2 and 3.
	topo := topology.SingleNode(8)
	pr := sched.New("4pairs", 8, 100, 0)
	for i := 0; i < 4; i++ {
		pr.Add(i, sched.Op{Kind: sched.OpSend, To: 4 + i, SendLen: 100, Tag: 1})
		pr.Add(4+i, sched.Op{Kind: sched.OpRecv, From: i, RecvLen: 100, Tag: 1})
	}
	res, err := Simulate(pr, topo, flatModel())
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 4; i++ {
		if res.Finish[i] > last {
			last = res.Finish[i]
		}
	}
	// Copy-in requests all arrive at t=1: two run 1..2, two run 2..3.
	approx(t, "slowest sender", last, 3)
}

func TestCacheDegradation(t *testing.T) {
	m := flatModel()
	m.CacheBytes = 150 // per-node working set threshold
	m.CacheFactor = 0.5
	// Working set = N * ranks on node = 100*2 = 200 > 150 -> bandwidth
	// halves: copy takes 2 s instead of 1.
	res, err := Simulate(sendRecvProgram(100), topology.SingleNode(2), m)
	if err != nil {
		t.Fatal(err)
	}
	// sender: 1 + 2 = 3; ready 13; recv copy 2 -> 15; +2 -> 17.
	approx(t, "degraded receiver finish", res.Finish[1], 17)
}

func TestSimDetectsStall(t *testing.T) {
	// Both ranks post rendezvous sends first, then receives: neither
	// receiver is ever reached. Structurally valid, dynamically stuck.
	pr := sched.New("head-to-head", 2, 400, 0)
	pr.Add(0, sched.Op{Kind: sched.OpSend, To: 1, SendLen: 200, Tag: 1})
	pr.Add(0, sched.Op{Kind: sched.OpRecv, From: 1, RecvLen: 200, Tag: 1})
	pr.Add(1, sched.Op{Kind: sched.OpSend, To: 0, SendLen: 200, Tag: 1})
	pr.Add(1, sched.Op{Kind: sched.OpRecv, From: 0, RecvLen: 200, Tag: 1})
	_, err := Simulate(pr, topology.SingleNode(2), flatModel())
	if err == nil {
		t.Fatal("expected stall detection")
	}
}

func TestZeroByteMessagesCostLatencyOnly(t *testing.T) {
	res, err := Simulate(sendRecvProgram(0), topology.SingleNode(2), flatModel())
	if err != nil {
		t.Fatal(err)
	}
	// sender: o_send, zero copy -> 1; ready 11; recv copy 0 s -> 11+2=13.
	approx(t, "zero-byte receiver", res.Finish[1], 13)
}

func TestBcastProgramsComplete(t *testing.T) {
	// Every generated broadcast program must run to completion on the
	// simulator across a parameter grid (no stalls, positive makespan).
	m := Hornet()
	for _, p := range []int{2, 3, 8, 10, 17} {
		topo := topology.Blocked(p, 4)
		for _, n := range []int{0, 1, 100, 100000} {
			for name, ops := range map[string]sched.Emitter{
				"bcast-native": core.BcastNativeOps, "bcast-opt": core.BcastOptOps, "binomial-bcast": core.BinomialOps,
			} {
				pr := sched.Generate(name, ops, p, 0, n, 0)
				res, err := Simulate(pr, topo, m)
				if err != nil {
					t.Fatalf("p=%d n=%d %s: %v", p, n, pr.Name, err)
				}
				if res.Makespan < 0 {
					t.Fatalf("negative makespan")
				}
				if n > 0 && res.Makespan == 0 && p > 1 {
					t.Fatalf("p=%d n=%d %s: zero makespan", p, n, pr.Name)
				}
			}
		}
	}
}

func TestTunedNeverSlowerOnBcast(t *testing.T) {
	// The central performance claim, in simulation: the tuned broadcast's
	// steady-state iteration time is never worse than the native one.
	m := Hornet()
	for _, cfg := range []struct{ p, cores, n int }{
		{16, 24, 1 << 19},
		{16, 24, 1 << 22},
		{64, 24, 1 << 20},
		{129, 24, 12288},
		{129, 24, 1 << 20},
		{9, 24, 524287},
		{10, 4, 4096},
	} {
		topo := topology.Blocked(cfg.p, cfg.cores)
		nat, err := SteadyStateIterTime(sched.Generate("bcast-native", core.BcastNativeOps, cfg.p, 0, cfg.n, 0), topo, m, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := SteadyStateIterTime(sched.Generate("bcast-opt", core.BcastOptOps, cfg.p, 0, cfg.n, 0), topo, m, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if opt > nat*1.0001 {
			t.Errorf("p=%d n=%d: tuned %.6g s slower than native %.6g s", cfg.p, cfg.n, opt, nat)
		}
	}
}

func TestMakespanMonotoneInSize(t *testing.T) {
	m := Hornet()
	topo := topology.Blocked(16, 8)
	prev := -1.0
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20} {
		res, err := Simulate(sched.Generate("bcast-native", core.BcastNativeOps, 16, 0, n, 0), topo, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan <= prev {
			t.Fatalf("makespan not increasing at n=%d: %v <= %v", n, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}

func TestRootRotationInvariance(t *testing.T) {
	// On a symmetric (single-node) topology, rotating the root must not
	// change the makespan (the schedule is rotation-symmetric).
	m := Hornet()
	topo := topology.SingleNode(12)
	base, err := Simulate(sched.Generate("bcast-opt", core.BcastOptOps, 12, 0, 60000, 0), topo, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []int{3, 7, 11} {
		res, err := Simulate(sched.Generate("bcast-opt", core.BcastOptOps, 12, root, 60000, 0), topo, m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-base.Makespan) > 1e-12*base.Makespan {
			t.Fatalf("root %d: makespan %v != %v", root, res.Makespan, base.Makespan)
		}
	}
}

func TestReplicate(t *testing.T) {
	pr := sendRecvProgram(100)
	r3 := Replicate(pr, 3)
	if len(r3.OpsOf(0)) != 3 || len(r3.OpsOf(1)) != 3 {
		t.Fatalf("replicate op counts wrong")
	}
	if err := r3.Validate(); err != nil {
		t.Fatal(err)
	}
	res1, err := Simulate(pr, topology.SingleNode(2), flatModel())
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Simulate(r3, topology.SingleNode(2), flatModel())
	if err != nil {
		t.Fatal(err)
	}
	if res3.Makespan <= res1.Makespan {
		t.Fatalf("3 iterations not slower than 1: %v vs %v", res3.Makespan, res1.Makespan)
	}
	if res3.Messages != 3*res1.Messages {
		t.Fatalf("message counts: %d vs %d", res3.Messages, res1.Messages)
	}
}

func TestSteadyStateIterTimeValidation(t *testing.T) {
	pr := sendRecvProgram(10)
	if _, err := SteadyStateIterTime(pr, topology.SingleNode(2), flatModel(), 0, 3); err == nil {
		t.Fatal("warm < 1 must fail")
	}
	if _, err := SteadyStateIterTime(pr, topology.SingleNode(2), flatModel(), 3, 3); err == nil {
		t.Fatal("total <= warm must fail")
	}
	dt, err := SteadyStateIterTime(pr, topology.SingleNode(2), flatModel(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatalf("iteration time = %v", dt)
	}
}

func TestModelValidation(t *testing.T) {
	bad := flatModel()
	bad.IntraBandwidth = 0
	if _, err := Simulate(sendRecvProgram(1), topology.SingleNode(2), bad); err == nil {
		t.Fatal("zero bandwidth must fail")
	}
	bad2 := flatModel()
	bad2.MemChannels = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero channels must fail")
	}
	bad3 := flatModel()
	bad3.CacheBytes = 100
	bad3.CacheFactor = 2
	if err := bad3.Validate(); err == nil {
		t.Fatal("cache factor > 1 must fail")
	}
	if err := Hornet().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Laki().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologySizeMismatch(t *testing.T) {
	if _, err := Simulate(sendRecvProgram(1), topology.SingleNode(3), flatModel()); err == nil {
		t.Fatal("topology mismatch must fail")
	}
}

func TestPipeliningAdvantageForTunedRoot(t *testing.T) {
	// In a replicated (back-to-back) run the tuned broadcast pipelines
	// better: its root never waits for ring receives. Verify the per-
	// iteration advantage exceeds the single-shot advantage for a small
	// eager-sized message (the Figure 7 mechanism).
	m := Hornet()
	const p, n = 9, 12288
	topo := topology.Blocked(p, 24)
	natOnce, err := Simulate(sched.Generate("bcast-native", core.BcastNativeOps, p, 0, n, 0), topo, m)
	if err != nil {
		t.Fatal(err)
	}
	optOnce, err := Simulate(sched.Generate("bcast-opt", core.BcastOptOps, p, 0, n, 0), topo, m)
	if err != nil {
		t.Fatal(err)
	}
	natIter, err := SteadyStateIterTime(sched.Generate("bcast-native", core.BcastNativeOps, p, 0, n, 0), topo, m, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	optIter, err := SteadyStateIterTime(sched.Generate("bcast-opt", core.BcastOptOps, p, 0, n, 0), topo, m, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	onceSpeedup := natOnce.Makespan / optOnce.Makespan
	iterSpeedup := natIter / optIter
	if iterSpeedup <= 1 {
		t.Fatalf("no steady-state speedup: %v", iterSpeedup)
	}
	if iterSpeedup < onceSpeedup {
		t.Fatalf("pipelining should amplify the gain: once %.3f, iter %.3f", onceSpeedup, iterSpeedup)
	}
}

func TestEagerCreditsBlockSender(t *testing.T) {
	// Credit window of 1: the second eager send cannot inject until the
	// receiver consumes the first.
	m := flatModel()
	m.EagerCredits = 1
	pr := sched.New("credits", 2, 300, 0)
	pr.Add(0, sched.Op{Kind: sched.OpSend, To: 1, SendLen: 100, Tag: 1})
	pr.Add(0, sched.Op{Kind: sched.OpSend, To: 1, SendLen: 100, Tag: 1})
	pr.Add(1, sched.Op{Kind: sched.OpRecv, From: 0, RecvLen: 100, Tag: 1})
	pr.Add(1, sched.Op{Kind: sched.OpRecv, From: 0, RecvLen: 100, Tag: 1})
	res, err := Simulate(pr, topology.SingleNode(2), m)
	if err != nil {
		t.Fatal(err)
	}
	// First msg: copy-in 1..2, ready 12; receiver copy-out 12..13 frees
	// the credit. Second injection: senderReach raised to 13, copy
	// 13..14 -> sender finishes at 14 (it would be 4 with open credits:
	// copy-in 3..4 after the second send's overhead).
	approx(t, "credit-blocked sender finish", res.Finish[0], 14)

	m.EagerCredits = 0
	res2, err := Simulate(pr, topology.SingleNode(2), m)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "unlimited-credit sender finish", res2.Finish[0], 4)
}

func TestEagerCreditsPreserveOrderAndCompletion(t *testing.T) {
	// A longer pipelined exchange with a tiny window must still complete
	// with all messages delivered.
	m := flatModel()
	m.EagerCredits = 2
	const k = 20
	pr := sched.New("credit-stream", 2, 100, 0)
	for i := 0; i < k; i++ {
		pr.Add(0, sched.Op{Kind: sched.OpSend, To: 1, SendLen: 50, Tag: 1})
		pr.Add(1, sched.Op{Kind: sched.OpRecv, From: 0, RecvLen: 50, Tag: 1})
	}
	res, err := Simulate(pr, topology.SingleNode(2), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != k {
		t.Fatalf("messages = %d want %d", res.Messages, k)
	}
	// Sender cannot finish before the receiver consumed message k-2.
	if res.Finish[0] <= res.Finish[1]/2 {
		t.Fatalf("sender %v implausibly ahead of receiver %v", res.Finish[0], res.Finish[1])
	}
}

func TestCreditsDampSmallMessagePipelining(t *testing.T) {
	// With one credit the broadcast loop cannot run far ahead: the
	// steady-state time must be at least as large as with open credits.
	m := Hornet()
	pr := sched.Generate("bcast-opt", core.BcastOptOps, 17, 0, 12288, 0)
	topo := topology.Blocked(17, 24)
	open, err := SteadyStateIterTime(pr, topo, m, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	tight := Hornet()
	tight.EagerCredits = 1
	closed, err := SteadyStateIterTime(pr, topo, tight, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if closed < open {
		t.Fatalf("tight credits faster than open: %v < %v", closed, open)
	}
}

func TestNodeAwareRingRecoversBlockedProfile(t *testing.T) {
	// On a round-robin placement the plain ring crosses nodes on almost
	// every edge; the node-aware reorder (extension) cuts that to one
	// crossing per node and must be significantly faster in simulation.
	const np, n = 24, 1 << 20
	m := Hornet()
	topo := topology.RoundRobin(np, 8) // 3 nodes, scattered ranks
	plain, err := SteadyStateIterTime(sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0), topo, m, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := SteadyStateIterTime(sched.Generate("bcast-opt-nodeaware", core.NodeAwareOps(topo, core.BcastOptOps), topo.NP(), 0, n, 0), topo, m, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if aware >= plain {
		t.Fatalf("node-aware ring not faster on scattered placement: %.6g vs %.6g", aware, plain)
	}
}

// TestSMPOptKeepsTheRingOffTheNetwork: the multi-core aware schedule is
// an ordinary program the simulator replays. On two Hornet nodes
// (p=48, 24 per node) only the two leaders' exchange crosses the network,
// so it moves fewer inter-node messages and bytes, and holds the NICs for
// less time, than the flat tuned ring over all 48 ranks.
func TestSMPOptKeepsTheRingOffTheNetwork(t *testing.T) {
	const np, n = 48, 1 << 20
	m := Hornet()
	topo := topology.Blocked(np, topology.HornetCoresPerNode)
	interBytes := func(pr *sched.Program) (bytes int) {
		for rank, ops := range pr.Ranks {
			for _, op := range ops {
				if op.Kind != sched.OpRecv && !topo.SameNode(rank, op.To) {
					bytes += op.SendLen
				}
			}
		}
		return bytes
	}
	flat := sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0)
	smp := sched.Generate("smp-opt", core.SMPOptOps(topo), np, 0, n, 0)
	fr, err := Simulate(flat, topo, m)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Simulate(smp, topo, m)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Makespan <= 0 || sr.Messages != smp.Stats().Messages {
		t.Fatalf("smp-opt replay: %+v, program has %d messages", sr, smp.Stats().Messages)
	}
	if fb, sb := interBytes(flat), interBytes(smp); sb >= fb || sr.InterMessages >= fr.InterMessages || sr.NICBusy >= fr.NICBusy {
		t.Fatalf("smp-opt must cross nodes less: inter bytes %d vs flat %d, inter messages %d vs %d, NIC busy %g vs %g",
			sb, fb, sr.InterMessages, fr.InterMessages, sr.NICBusy, fr.NICBusy)
	}
	if _, err := SteadyStateIterTime(smp, topo, m, 2, 5); err != nil {
		t.Fatal(err)
	}
}

func TestChainVsRingCrossover(t *testing.T) {
	// Sanity for the extension baseline: the pipelined chain completes
	// and is slower than the tuned ring for wide communicators (the ring
	// parallelizes bandwidth, the chain serializes it through every hop).
	m := Hornet()
	const np, n = 24, 1 << 20
	topo := topology.Blocked(np, 24)
	ring, err := SteadyStateIterTime(sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0), topo, m, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := SteadyStateIterTime(sched.Generate("chain-bcast", core.ChainOps, np, 0, n, 64<<10), topo, m, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if chain <= 0 || ring <= 0 {
		t.Fatal("nonpositive times")
	}
	// With back-to-back pipelining the chain can stream well, but it
	// must not beat the ring by an order of magnitude; mostly this
	// guards that both simulate sanely.
	if chain*100 < ring {
		t.Fatalf("chain implausibly fast: %.6g vs ring %.6g", chain, ring)
	}
}

func TestSimulationIsDeterministic(t *testing.T) {
	// Two runs of the same program must produce bit-identical times —
	// the simulator is a pure function (heap ties broken by sequence).
	m := Hornet()
	topo := topology.Blocked(33, 8)
	pr := sched.Generate("bcast-opt", core.BcastOptOps, 33, 5, 123457, 0)
	a, err := Simulate(pr, topo, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(pr, topo, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	for r := range a.Finish {
		if a.Finish[r] != b.Finish[r] {
			t.Fatalf("rank %d finish differs: %v vs %v", r, a.Finish[r], b.Finish[r])
		}
	}
	if a.NICBusy != b.NICBusy || a.MemBusy != b.MemBusy {
		t.Fatalf("resource accounting differs")
	}
}

func TestResourceUtilizationAccounting(t *testing.T) {
	// The busy accounting must reflect exactly the transferred volume:
	// one eager inter-node message occupies both NICs for n/BW each.
	topo, err := topology.Custom([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := flatModel()
	res, err := Simulate(sendRecvProgram(100), topo, m)
	if err != nil {
		t.Fatal(err)
	}
	wantNIC := 2 * (100.0 / m.InterBandwidth)
	if math.Abs(res.NICBusy-wantNIC) > 1e-9 {
		t.Fatalf("NIC busy = %v want %v", res.NICBusy, wantNIC)
	}
	// Plus the receiver's copy-out on its node's memory resource.
	wantMem := 100.0 / m.IntraBandwidth
	if math.Abs(res.MemBusy-wantMem) > 1e-9 {
		t.Fatalf("mem busy = %v want %v", res.MemBusy, wantMem)
	}
}
