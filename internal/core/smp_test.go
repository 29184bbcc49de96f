package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

// smpTopologies are the placements the SMP schedules are checked on:
// blocked and round-robin nodes, and an irregular map whose nodes are
// interleaved and unevenly filled.
func smpTopologies(t *testing.T, p int) []*topology.Map {
	t.Helper()
	irregular, err := topology.Custom([]int{0, 1, 1, 0, 2, 0, 1, 2, 2, 0, 1, 0, 0, 1, 2, 2}[:p])
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Map{topology.Blocked(p, 4), topology.RoundRobin(p, 3), irregular}
}

// TestSMPOpsVerify: on every placement, for every root (leaders and
// non-leaders alike), the composed schedule is deadlock-free, sends only
// bytes the sender holds, and leaves the whole buffer on every rank; and
// its traffic is the closed form of its three phases — one n-byte tree
// message per non-leader, all intra-node, plus the leaders' scatter and
// ring, all inter-node.
func TestSMPOpsVerify(t *testing.T) {
	for _, p := range []int{5, 10, 13, 16} {
		for _, topo := range smpTopologies(t, p) {
			leaders := topo.NumNodes()
			for root := 0; root < p; root++ {
				for _, n := range []int{0, 1, 10*p + 3} {
					for name, c := range map[string]struct {
						ops  sched.Emitter
						ring Traffic
					}{
						"smp":     {SMPNativeOps(topo), RingTrafficNative(leaders, n)},
						"smp-opt": {SMPOptOps(topo), RingTrafficTuned(leaders, n)},
					} {
						label := fmt.Sprintf("%s %s root=%d n=%d", name, topo, root, n)
						pr := sched.Generate(name, c.ops, p, root, n, 0)
						res, err := sched.Verify(pr, "bcast")
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if name == "smp-opt" && res.RedundantMessages != 0 {
							t.Fatalf("%s: %d redundant messages", label, res.RedundantMessages)
						}
						var intra, inter Traffic
						for rank, ops := range pr.Ranks {
							for _, op := range ops {
								if op.Kind == sched.OpRecv {
									continue
								}
								tr := &inter
								if topo.SameNode(rank, op.To) {
									tr = &intra
								}
								tr.Messages++
								tr.Bytes += op.SendLen
							}
						}
						scatter := ScatterTraffic(leaders, n)
						wantInter := Traffic{Messages: scatter.Messages + c.ring.Messages, Bytes: scatter.Bytes + c.ring.Bytes}
						wantIntra := Traffic{Messages: p - leaders, Bytes: (p - leaders) * n}
						if intra != wantIntra || inter != wantInter {
							t.Fatalf("%s: intra %+v inter %+v, want %+v / %+v", label, intra, inter, wantIntra, wantInter)
						}
					}
				}
			}
		}
	}
}

// TestSMPOnOneNodeIsTheBinomialTree: with a single node there is one
// leader and nothing to do between nodes, so the schedule degenerates to
// the whole-buffer tree from the root — which is why the registry rows
// refuse single-node placements rather than run a mislabelled binomial.
func TestSMPOnOneNodeIsTheBinomialTree(t *testing.T) {
	for _, p := range []int{1, 2, 6, 9} {
		topo := topology.SingleNode(p)
		for _, root := range []int{0, p / 2, p - 1} {
			want := sched.Generate("binomial-bcast", BinomialOps, p, root, 100, 0)
			for _, ops := range []sched.Emitter{SMPNativeOps(topo), SMPOptOps(topo)} {
				got := sched.Generate("smp", ops, p, root, 100, 0)
				if !reflect.DeepEqual(got.Ranks, want.Ranks) {
					t.Fatalf("p=%d root=%d:\n%s\nwant\n%s", p, root, got.Dump(), want.Dump())
				}
			}
		}
	}
}
