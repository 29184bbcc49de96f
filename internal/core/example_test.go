package core_test

import (
	"fmt"

	"repro/internal/core"
)

// The paper's Section IV numbers fall straight out of the traffic model.
func ExampleTunedSavedMessages() {
	for _, p := range []int{8, 10} {
		nat := core.RingTrafficNative(p, p).Messages
		tun := core.RingTrafficTuned(p, p).Messages
		fmt.Printf("P=%d: native %d, tuned %d, saved %d\n", p, nat, tun, core.TunedSavedMessages(p))
	}
	// Output:
	// P=8: native 56, tuned 44, saved 12
	// P=10: native 90, tuned 75, saved 15
}

// ComputeStepFlag reproduces the per-rank behaviour of Figure 4: the
// root only sends, its left neighbour only receives, and interior
// subtree roots stop receiving step-1 iterations before the end.
func ExampleComputeStepFlag() {
	for _, rel := range []int{0, 4, 3, 7} {
		sf := core.ComputeStepFlag(rel, 8)
		mode := "send-only tail"
		if sf.RecvOnly {
			mode = "recv-only tail"
		}
		fmt.Printf("rel %d: step=%d %s (%d full sendrecv steps)\n",
			rel, sf.Step, mode, max(8-sf.Step, 0))
	}
	// Output:
	// rel 0: step=8 send-only tail (0 full sendrecv steps)
	// rel 4: step=4 send-only tail (4 full sendrecv steps)
	// rel 3: step=4 recv-only tail (4 full sendrecv steps)
	// rel 7: step=8 recv-only tail (0 full sendrecv steps)
}

// After the binomial scatter, interior tree nodes own their whole
// subtree's chunks — the fact the tuned ring exploits.
func ExampleOwnedChunks() {
	for rel := 0; rel < 8; rel++ {
		lo, hi := core.OwnedChunks(rel, 8)
		fmt.Printf("rel %d owns chunks [%d,%d)\n", rel, lo, hi)
	}
	// Output:
	// rel 0 owns chunks [0,8)
	// rel 1 owns chunks [1,2)
	// rel 2 owns chunks [2,4)
	// rel 3 owns chunks [3,4)
	// rel 4 owns chunks [4,8)
	// rel 5 owns chunks [5,6)
	// rel 6 owns chunks [6,8)
	// rel 7 owns chunks [7,8)
}
