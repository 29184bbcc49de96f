package core

// StepFlag is the per-rank pair computed by the tuned ring allgather
// (the "added code" of the paper's Listing 1). No schedule runs it:
// BcastOptOps elides the native ring, and the tests hold that to this.
//
// In ring step i (1-based, i = 1 .. P-1) a rank executes a full
// MPI_Sendrecv while i <= P - Step; for the remaining Step-1 iterations it
// degenerates:
//
//   - RecvOnly == false (the paper's flag = 0, "send point"): the rank is
//     a scatter-subtree root; the chunks that would arrive from its left
//     neighbour in the final iterations are chunks it already owns from
//     the scatter phase, so it stops receiving but keeps sending.
//   - RecvOnly == true (flag = 1, "receive point"): the rank's right
//     neighbour is a scatter-subtree root that does not need the chunks
//     this rank would forward, so it stops sending but keeps receiving.
//
// Every rank receives exactly one pair; the mask loop always terminates
// because at mask = 2 one of any two ring-adjacent relative ranks is even.
type StepFlag struct {
	// Step determines when the rank leaves the full-exchange regime: the
	// rank sendrecvs while i <= P - Step and degenerates for the final
	// Step-1 iterations.
	Step int
	// RecvOnly selects the degenerate half: true = receive-only, false =
	// send-only.
	RecvOnly bool
}

// ComputeStepFlag ports the mask loop of Listing 1. rel is the rank's
// position relative to the broadcast root; p is the communicator size.
func ComputeStepFlag(rel, p int) StepFlag {
	if p <= 1 {
		// Degenerate communicator: the ring loop body never runs.
		return StepFlag{Step: p, RecvOnly: false}
	}
	for mask := CeilPow2(p); mask > 1; mask >>= 1 {
		rightRel := rel + 1
		if rightRel >= p {
			rightRel -= p
		}
		if rightRel%mask == 0 {
			step := mask
			if rightRel+mask > p {
				step = p - rightRel
			}
			return StepFlag{Step: step, RecvOnly: true}
		}
		if rel%mask == 0 {
			step := mask
			if rel+mask > p {
				step = p - rel
			}
			return StepFlag{Step: step, RecvOnly: false}
		}
	}
	panic("core: ComputeStepFlag: mask loop fell through (unreachable for p >= 2)")
}
