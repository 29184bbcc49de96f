package collective_test

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/tune"
)

// The tuned broadcast in three lines: run ranks, fill the root's buffer,
// pin the paper's algorithm by its registry name.
func ExampleBroadcast() {
	err := engine.Run(4, func(c mpi.Comm) error {
		buf := make([]byte, 4)
		if c.Rank() == 0 {
			copy(buf, []byte{10, 20, 30, 40})
		}
		if err := collective.Broadcast(c, buf, 0, collective.Options{Algorithm: tune.RingOpt}); err != nil {
			return err
		}
		if c.Rank() == 3 {
			fmt.Println("rank 3 received", buf)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// rank 3 received [10 20 30 40]
}

// Allreduce gives every rank the global sum. Through a rank's Calls, a
// repeated call runs the schedule the first one bound.
func ExampleCalls_AllreduceFloat64() {
	err := engine.Run(5, func(c mpi.Comm) error {
		var calls collective.Calls
		defer calls.Release()
		out := make([]float64, 1)
		for range 2 {
			if err := calls.AllreduceFloat64(c, []float64{float64(c.Rank())}, out, collective.OpSum); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			fmt.Println("sum of ranks:", out[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// sum of ranks: 10
}
