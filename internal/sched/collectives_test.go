package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestScatterGatherAllgatherProgramsVerify proves the schedules the
// executor runs for Scatter, Gather and Allgather: the binomial scatter,
// the same tree reversed, and the enclosed ring. Chunk k of the p·chunk
// program buffer belongs to relative rank k, so a rank's own chunk is
// [rel·chunk, (rel+1)·chunk). Each program must be deadlock-free, send
// only bytes its sender holds, and leave
//
//   - scatter (the root owns [0, n)): every rank holding its chunk;
//   - gather (every rank owns its chunk): the root holding [0, n);
//   - allgather (every rank owns its chunk): every rank holding [0, n).
func TestScatterGatherAllgatherProgramsVerify(t *testing.T) {
	type cell struct{ p, root int }
	var cells []cell
	for p := 1; p <= 17; p++ {
		for root := 0; root < p; root++ {
			cells = append(cells, cell{p, root})
		}
	}
	for _, p := range []int{33, 64} {
		for _, root := range []int{0, p / 2, p - 1} {
			cells = append(cells, cell{p, root})
		}
	}
	gather := sched.Emitter(core.ScatterOps).Reverse()
	for _, c := range cells {
		for _, chunk := range []int{1, 7} {
			p, root, n := c.p, c.root, c.p*chunk
			own := func(rank int) *sched.IntervalSet {
				rel := core.RelRank(rank, root, p)
				return sched.NewIntervalSet(sched.Interval{Lo: rel * chunk, Hi: (rel + 1) * chunk})
			}
			atRoot := func(rank int) *sched.IntervalSet {
				if rank == root {
					return sched.NewIntervalSet(sched.Interval{Lo: 0, Hi: n})
				}
				return sched.NewIntervalSet()
			}
			for _, tc := range []struct {
				name string
				e    sched.Emitter
				cfg  sched.VerifyConfig
			}{
				{"scatter", core.ScatterOps, sched.VerifyConfig{WantFinal: own}},
				{"gather", gather, sched.VerifyConfig{Initial: own, WantFinal: atRoot}},
				{"allgather", core.RingNativeOps, sched.VerifyConfig{Initial: own, WantFinal: sched.FullBuffer(n)}},
			} {
				pr := sched.Generate(fmt.Sprintf("%s/p=%d/root=%d/chunk=%d", tc.name, p, root, chunk), tc.e, p, root, n, 0)
				if _, err := sched.Verify(pr, tc.cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestDisseminationBarrierVerifies proves the schedule Barrier runs at
// every p from 1 to 300: deadlock-free, and causal — a rank leaves the
// barrier only after every rank has entered it. The second property is
// checked by propagating "has heard from" sets round by round: a rank's
// round-k message carries everything it had heard before round k, and
// every rank must end having heard from all p ranks.
func TestDisseminationBarrierVerifies(t *testing.T) {
	for p := 1; p <= 300; p++ {
		pr := sched.Generate(fmt.Sprintf("barrier/p=%d", p), core.DisseminationOps, p, 0, 0, 0)
		if _, err := sched.Verify(pr, sched.VerifyConfig{}); err != nil {
			t.Fatal(err)
		}
		if err := heardFromAll(pr); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// heardFromAll runs a program of lock-step Sendrecv rounds — op k of
// every rank is round k — propagating which ranks each rank has heard
// from, and reports the first rank that has not heard from every rank.
func heardFromAll(pr *sched.Program) error {
	words := (pr.P + 63) / 64
	heard := make([][]uint64, pr.P)
	for r := range heard {
		heard[r] = make([]uint64, words)
		heard[r][r/64] |= 1 << (r % 64)
	}
	for r, ops := range pr.Ranks {
		if len(ops) != len(pr.Ranks[0]) {
			return fmt.Errorf("rank %d runs %d rounds, rank 0 %d", r, len(ops), len(pr.Ranks[0]))
		}
	}
	for k := range pr.Ranks[0] {
		next := make([][]uint64, pr.P)
		for r := range next {
			next[r] = slices.Clone(heard[r])
		}
		for r, ops := range pr.Ranks {
			op := ops[k]
			if op.Kind != sched.OpSendrecv || pr.Ranks[op.To][k].From != r {
				return fmt.Errorf("round %d: rank %d's %s is no lock-step exchange", k, r, op)
			}
			for w, bits := range heard[r] {
				next[op.To][w] |= bits
			}
		}
		heard = next
	}
	for r, set := range heard {
		for q := 0; q < pr.P; q++ {
			if set[q/64]&(1<<(q%64)) == 0 {
				return fmt.Errorf("rank %d leaves without hearing from rank %d", r, q)
			}
		}
	}
	return nil
}

// TestReduceProgramsVerify proves the schedules Reduce and Allreduce
// run, at every p from 1 to 300 and roots 0, p/2 and p-1: the binomial
// reduction (core.ReduceOps) and that reduction followed by the binomial
// broadcast. Every rank starts holding its whole buffer, its
// contribution, so Verify checks deadlock-freedom; foldedOnce checks
// that the root (for the reduction) or every rank (for the allreduce)
// ends with every rank's contribution folded in exactly once.
func TestReduceProgramsVerify(t *testing.T) {
	allreduce := sched.Emitter(core.ReduceOps).Then(core.BinomialOps)
	for p := 1; p <= 300; p++ {
		for _, root := range []int{0, p / 2, p - 1} {
			const n = 16
			for _, tc := range []struct {
				name  string
				e     sched.Emitter
				whole func(rank int) bool
			}{
				{"reduce", core.ReduceOps, func(rank int) bool { return rank == root }},
				{"allreduce", allreduce, func(int) bool { return true }},
			} {
				pr := sched.Generate(fmt.Sprintf("%s/p=%d/root=%d", tc.name, p, root), tc.e, p, root, n, 0)
				if _, err := sched.Verify(pr, sched.VerifyConfig{Initial: sched.FullBuffer(n)}); err != nil {
					t.Fatal(err)
				}
				if err := foldedOnce(pr, tc.whole); err != nil {
					t.Fatalf("%s: %v", pr.Name, err)
				}
			}
		}
	}
}

// TestFoldedOnceCatchesMisfolds: the contributions check rejects a
// reduction one of whose receives overwrites instead of folding (the
// contributions gathered below it are lost), and an allreduce whose
// broadcast tail folds (a rank counts its own subtree twice).
func TestFoldedOnceCatchesMisfolds(t *testing.T) {
	allreduce := sched.Emitter(core.ReduceOps).Then(core.BinomialOps)
	for _, p := range []int{2, 3, 8, 13} {
		for _, root := range []int{0, p - 1} {
			pr := sched.Generate("reduce", core.ReduceOps, p, root, 8, 0)
			ops := pr.Ranks[root]
			ops[len(ops)-1].Fold = false
			if err := foldedOnce(pr, func(rank int) bool { return rank == root }); err == nil {
				t.Errorf("p=%d root=%d: a root receive without Fold passes", p, root)
			}
		}
		pr := sched.Generate("allreduce", allreduce, p, 0, 8, 0)
		for r := 1; r < p; r++ {
			ops := pr.Ranks[r]
			for i := range ops {
				ops[i].Fold = ops[i].Kind == sched.OpRecv
			}
		}
		if err := foldedOnce(pr, func(int) bool { return true }); err == nil {
			t.Errorf("p=%d: a folding broadcast tail passes", p)
		}
	}
}

// foldedOnce runs a program of sends and receives on multisets of
// contributions: every rank starts with its own, a send carries the
// sender's current multiset, a Fold receive adds the message's to the
// receiver's and a plain receive replaces the receiver's with it. It
// reports the first rank whole selects that does not end with every
// rank's contribution exactly once.
func foldedOnce(pr *sched.Program, whole func(rank int) bool) error {
	type chanKey struct{ src, dst, tag int }
	sets := make([][]int, pr.P)
	for r := range sets {
		sets[r] = make([]int, pr.P)
		sets[r][r] = 1
	}
	queues := map[chanKey][][]int{}
	pc := make([]int, pr.P)
	for progressed := true; progressed; {
		progressed = false
		for r, ops := range pr.Ranks {
			for ; pc[r] < len(ops); pc[r]++ {
				op := ops[pc[r]]
				if op.Kind == sched.OpSendrecv {
					return fmt.Errorf("rank %d: %s in a reduction", r, op)
				}
				if op.Kind == sched.OpSend {
					k := chanKey{r, op.To, op.Tag}
					queues[k] = append(queues[k], slices.Clone(sets[r]))
					progressed = true
					continue
				}
				k := chanKey{op.From, r, op.Tag}
				if len(queues[k]) == 0 {
					break
				}
				msg := queues[k][0]
				queues[k] = queues[k][1:]
				if !op.Fold {
					clear(sets[r])
				}
				for q, n := range msg {
					sets[r][q] += n
				}
				progressed = true
			}
		}
	}
	for r, ops := range pr.Ranks {
		if pc[r] < len(ops) {
			return fmt.Errorf("rank %d blocks at op %d (%s)", r, pc[r], ops[pc[r]])
		}
		if !whole(r) {
			continue
		}
		for q, n := range sets[r] {
			if n != 1 {
				return fmt.Errorf("rank %d ends with rank %d's contribution %d times", r, q, n)
			}
		}
	}
	return nil
}
