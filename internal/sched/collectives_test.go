package sched_test

import (
	"fmt"
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
