package core

import "repro/internal/sched"

// Extent returns the number of consecutive chunks that relative rank rel
// holds in its buffer after the binomial scatter phase.
//
// The binomial scatter forwards a rank's whole subtree through it, so an
// interior tree node retains not only its own chunk but every chunk of its
// descendants (Section III of the paper: "not only does each non-leaf node
// p_i ... own its corresponding chunk ... it also provides all data chunks
// for its descendant"). The subtree of relative rank rel spans chunks
// [rel, rel + Extent(rel, p)):
//
//   - the root (rel = 0) covers all p chunks;
//   - otherwise the subtree size is the largest power of two dividing rel,
//     clamped at the communicator boundary p - rel (the clamp is what makes
//     non-power-of-two cases like Figure 2's rank 8, which owns exactly
//     chunks {8, 9} of 10, come out right).
func Extent(rel, p int) int {
	if rel == 0 {
		return p
	}
	low := rel & (-rel)
	if low > p-rel {
		return p - rel
	}
	return low
}

// OwnedChunks returns the half-open chunk interval [lo, hi) held by
// relative rank rel after the binomial scatter.
func OwnedChunks(rel, p int) (lo, hi int) {
	return rel, rel + Extent(rel, p)
}

// ScatterOwnership returns, for the verifier, each absolute rank's byte
// ownership after the binomial scatter of an n-byte buffer from root.
func ScatterOwnership(p, root, n int) func(rank int) *sched.IntervalSet {
	l := NewLayout(n, p)
	return func(rank int) *sched.IntervalSet {
		rel := RelRank(rank, root, p)
		lo, hi := OwnedChunks(rel, p)
		return sched.NewIntervalSet(sched.Interval{Lo: l.Disp(lo), Hi: l.Disp(hi)})
	}
}
