package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

func TestNodeAwareOrderBlockedIsIdentity(t *testing.T) {
	topo := topology.Blocked(12, 4)
	perm := NodeAwareOrder(topo)
	for i, r := range perm {
		if r != i {
			t.Fatalf("blocked placement should give identity order, got perm[%d]=%d", i, r)
		}
	}
}

func TestNodeAwareOrderRoundRobin(t *testing.T) {
	// RoundRobin(6,2): nodes get ranks {0,3}, {1,4}, {2,5}; the
	// node-aware order visits them node by node.
	topo := topology.RoundRobin(6, 2)
	perm := NodeAwareOrder(topo)
	want := []int{0, 3, 1, 4, 2, 5}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v want %v", perm, want)
		}
	}
}

// ringCut counts ring edges (pos -> pos+1, wrapping) that cross nodes.
func ringCut(perm []int, topo *topology.Map) int {
	cut := 0
	p := len(perm)
	for i := 0; i < p; i++ {
		if !topo.SameNode(perm[i], perm[(i+1)%p]) {
			cut++
		}
	}
	return cut
}

func TestNodeAwareOrderMinimizesCut(t *testing.T) {
	for _, cores := range []int{2, 3, 8} {
		for _, np := range []int{6, 13, 24} {
			topo := topology.RoundRobin(np, cores)
			identity := make([]int, np)
			for i := range identity {
				identity[i] = i
			}
			nodeAware := NodeAwareOrder(topo)
			if got, id := ringCut(nodeAware, topo), ringCut(identity, topo); got > id {
				t.Fatalf("np=%d cores=%d: node-aware cut %d worse than identity %d", np, cores, got, id)
			}
			if got := ringCut(nodeAware, topo); got != topo.NumNodes() && topo.NumNodes() > 1 {
				t.Fatalf("np=%d cores=%d: node-aware cut %d want %d", np, cores, got, topo.NumNodes())
			}
		}
	}
}

func TestBcastOptNodeAwareVerifies(t *testing.T) {
	for _, topo := range []*topology.Map{
		topology.RoundRobin(10, 3),
		topology.Blocked(9, 4),
		topology.SingleNode(5),
	} {
		for _, root := range []int{0, topo.NP() - 1} {
			n := 16 * topo.NP()
			pr := sched.Generate("bcast-opt-nodeaware", NodeAwareOps(topo, BcastOptOps), topo.NP(), root, n, 0)
			res, err := sched.Verify(pr, "bcast")
			if err != nil {
				t.Fatalf("%s root=%d: %v", topo, root, err)
			}
			if res.RedundantMessages != 0 {
				t.Fatalf("node-aware tuned ring must stay redundancy-free, got %d", res.RedundantMessages)
			}
		}
	}
}

func TestBcastNativeNodeAwareVerifies(t *testing.T) {
	topo := topology.RoundRobin(8, 3)
	pr := sched.Generate("bcast-native-nodeaware", NodeAwareOps(topo, BcastNativeOps), topo.NP(), 2, 64, 0)
	if _, err := sched.Verify(pr, "bcast"); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAwareKeepsTrafficCounts(t *testing.T) {
	// A full-size group permutes endpoints but not message or byte counts.
	topo := topology.RoundRobin(10, 3)
	pr := sched.Generate("bcast-opt-nodeaware", NodeAwareOps(topo, BcastOptOps), topo.NP(), 0, 100, 0)
	base := sched.Generate("bcast-opt", BcastOptOps, 10, 0, 100, 0).Stats()
	got := pr.Stats()
	if got.Messages != base.Messages || got.Bytes != base.Bytes {
		t.Fatalf("relabelled stats %+v != base %+v", got, base)
	}
}

func TestChainBcastVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 10} {
		for _, n := range []int{0, 1, 100, 4096} {
			for _, seg := range []int{0, 1, 7, 1024} {
				pr := sched.Generate("chain-bcast", ChainOps, p, p/2, n, seg)
				if _, err := sched.Verify(pr, "bcast"); err != nil {
					t.Fatalf("p=%d n=%d seg=%d: %v", p, n, seg, err)
				}
			}
		}
	}
}

func TestChainBcastTraffic(t *testing.T) {
	// Each non-tail rank forwards every segment exactly once:
	// (p-1) * ceil(n/seg) messages, (p-1)*n bytes.
	const p, n, seg = 5, 1000, 128
	pr := sched.Generate("chain-bcast", ChainOps, p, 0, n, seg)
	segs := (n + seg - 1) / seg
	st := pr.Stats()
	if st.Messages != (p-1)*segs {
		t.Fatalf("messages = %d want %d", st.Messages, (p-1)*segs)
	}
	if st.Bytes != (p-1)*n {
		t.Fatalf("bytes = %d want %d", st.Bytes, (p-1)*n)
	}
	if st.MaxStep != segs {
		t.Fatalf("steps = %d want %d", st.MaxStep, segs)
	}
}

func TestChainBcastInterleavesForPipelining(t *testing.T) {
	// A middle rank's op order must alternate recv(seg k), send(seg k):
	// receiving everything before forwarding would kill the pipeline.
	pr := sched.Generate("chain-bcast", ChainOps, 4, 0, 1000, 100)
	ops := pr.OpsOf(1) // relative rank 1: both receives and sends
	for i := 0; i+1 < len(ops); i += 2 {
		if ops[i].Kind != sched.OpRecv || ops[i+1].Kind != sched.OpSend {
			t.Fatalf("ops %d/%d not recv/send interleaved: %s, %s", i, i+1, ops[i], ops[i+1])
		}
		if ops[i].RecvOff != ops[i+1].SendOff {
			t.Fatalf("forwarding a different segment than received: %s then %s", ops[i], ops[i+1])
		}
	}
}
