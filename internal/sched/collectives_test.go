package sched_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestScatterGatherAllgatherProgramsVerify proves the schedules the
// executor runs for Scatter, Gather and Allgather: the binomial scatter,
// the same tree reversed, and the enclosed ring.
func TestScatterGatherAllgatherProgramsVerify(t *testing.T) {
	ops := map[string]sched.Emitter{
		"scatter":   core.ScatterOps,
		"gather":    sched.Emitter(core.ScatterOps).Reverse(),
		"allgather": core.RingNativeOps,
	}
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 64} {
		for root := range p {
			if p > 17 && root != 0 && root != p/2 && root != p-1 {
				continue
			}
			for _, chunk := range []int{1, 7} {
				for op, e := range ops {
					pr := sched.Generate(fmt.Sprintf("%s/p=%d/root=%d/chunk=%d", op, p, root, chunk), e, p, root, p*chunk, 0)
					if _, err := sched.Verify(pr, op); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestDisseminationBarrierVerifies proves the schedule Barrier runs at
// every p from 1 to 300: deadlock-free, and causal — a rank leaves the
// barrier only after every rank has entered it.
func TestDisseminationBarrierVerifies(t *testing.T) {
	for p := 1; p <= 300; p++ {
		pr := sched.Generate(fmt.Sprintf("barrier/p=%d", p), core.DisseminationOps, p, 0, 0, 0)
		if _, err := sched.Verify(pr, "barrier"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReduceProgramsVerify proves the schedules Reduce and Allreduce
// run, at every p from 1 to 300 and roots 0, p/2 and p-1: the binomial
// reduction (core.ReduceOps) and that reduction followed by the binomial
// broadcast, each deadlock-free and ending with the root (for the
// reduction) or every rank (for the allreduce) holding every rank's
// contribution exactly once.
func TestReduceProgramsVerify(t *testing.T) {
	allreduce := sched.Emitter(core.ReduceOps).Then(core.BinomialOps)
	for p := 1; p <= 300; p++ {
		for _, root := range []int{0, p / 2, p - 1} {
			for _, tc := range []struct {
				op string
				e  sched.Emitter
			}{
				{"reduce", core.ReduceOps},
				{"allreduce", allreduce},
			} {
				pr := sched.Generate(fmt.Sprintf("%s/p=%d/root=%d", tc.op, p, root), tc.e, p, root, 16, 0)
				if _, err := sched.Verify(pr, tc.op); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestVerifyKillsMutants: Verify rejects, at every p and root tried, a
// reduction whose root's last receive overwrites instead of folding (the
// contributions gathered below it are lost), an allreduce whose
// broadcast tail folds (a rank counts its own subtree twice), and three
// broken dissemination barriers: without their last round, with rounds
// only while 2^k < p/2, and with every rank's ops cut to the first half.
func TestVerifyKillsMutants(t *testing.T) {
	for _, tc := range []struct {
		name, op string
		e        sched.Emitter
		mutate   func(pr *sched.Program, ops []sched.Op, rank int) []sched.Op
	}{
		{"reduce-root-overwrites", "reduce", core.ReduceOps, func(pr *sched.Program, ops []sched.Op, rank int) []sched.Op {
			if rank == pr.Root {
				ops[len(ops)-1].Fold = false
			}
			return ops
		}},
		{"allreduce-tail-folds", "allreduce", sched.Emitter(core.ReduceOps).Then(core.BinomialOps), func(pr *sched.Program, ops []sched.Op, rank int) []sched.Op {
			for i := range ops {
				ops[i].Fold = ops[i].Kind == sched.OpRecv && rank != pr.Root || ops[i].Fold
			}
			return ops
		}},
		{"barrier-last-round-dropped", "barrier", core.DisseminationOps, func(_ *sched.Program, ops []sched.Op, _ int) []sched.Op {
			return ops[:len(ops)-1]
		}},
		{"barrier-mask-below-half-p", "barrier", core.DisseminationOps, func(pr *sched.Program, ops []sched.Op, _ int) []sched.Op {
			return slices.DeleteFunc(ops, func(op sched.Op) bool { return 1<<(op.Step-1) >= pr.P/2 })
		}},
		{"barrier-ops-truncated", "barrier", core.DisseminationOps, func(_ *sched.Program, ops []sched.Op, _ int) []sched.Op {
			return ops[:len(ops)/2]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{2, 3, 8, 13} {
				for _, root := range []int{0, p - 1} {
					pr := sched.Generate(tc.name, tc.e, p, root, 8, 0)
					for r, ops := range pr.Ranks {
						pr.Ranks[r] = tc.mutate(pr, ops, r)
					}
					if _, err := sched.Verify(pr, tc.op); err == nil {
						t.Errorf("p=%d root=%d: the mutant passes", p, root)
					}
				}
			}
		})
	}
}

// TestVerifyChecksChunkIdentity: a gather whose root lands two chunks at
// each other's offsets covers every byte and moves only held bytes, but
// holds the wrong rank's chunk at each; so does an allgather ring whose
// ranks 0 and 1 swap the offsets of their last receives. Verify names
// the rank and the first wrong range.
func TestVerifyChecksChunkIdentity(t *testing.T) {
	swap := func(a, b *sched.Op) { a.RecvOff, b.RecvOff = b.RecvOff, a.RecvOff }
	gather := sched.Generate("gather", sched.Emitter(core.ScatterOps).Reverse(), 3, 0, 3, 0)
	swap(&gather.Ranks[0][0], &gather.Ranks[0][1])
	ring := sched.Generate("allgather", core.RingNativeOps, 4, 0, 4, 0)
	swap(&ring.Ranks[0][2], &ring.Ranks[1][2])
	for _, pr := range []*sched.Program{gather, ring} {
		t.Run(pr.Name, func(t *testing.T) {
			_, err := sched.Verify(pr, pr.Name)
			if err == nil || !strings.Contains(err.Error(), "rank 0 ends holding") || !strings.Contains(err.Error(), "at [1,2), want [1]") {
				t.Fatalf("got %v, want rank 0 lacking rank 1's chunk at [1,2)", err)
			}
		})
	}
}

// TestBarrierCausalityAnyShape: "barrier" holds any program to
// causality, not only lock-step rounds. A reduction followed by a
// broadcast, of no bytes, is a barrier at every p; a reduction alone is
// none, since its leaves leave before hearing from the root.
func TestBarrierCausalityAnyShape(t *testing.T) {
	reduceBcast := sched.Emitter(core.ReduceOps).Then(core.BinomialOps)
	for p := 1; p <= 300; p++ {
		pr := sched.Generate(fmt.Sprintf("reduce-bcast/p=%d", p), reduceBcast, p, 0, 0, 0)
		if _, err := sched.Verify(pr, "barrier"); err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			continue
		}
		pr = sched.Generate(fmt.Sprintf("reduce/p=%d", p), core.ReduceOps, p, 0, 0, 0)
		if _, err := sched.Verify(pr, "barrier"); err == nil || !strings.Contains(err.Error(), "rank 1 leaves without hearing from rank 0") {
			t.Fatalf("p=%d: got %v, want rank 1 leaving without hearing from rank 0", p, err)
		}
	}
}
