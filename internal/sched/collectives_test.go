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
