package collective

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
)

// Barrier synchronizes all ranks of the communicator by running the
// dissemination barrier (core.DisseminationOps) through the executor:
// ceil(log2 P) rounds in which rank r signals (r + 2^k) mod P and waits
// for (r - 2^k) mod P. The benchmark protocol of Section V ("all
// processes are synchronized with a MPI barrier before reaching the
// broadcast interface") uses it.
func Barrier(c mpi.Comm) error {
	if err := runStatic(c, opBarrier, nil, 0, 0, 0, core.DisseminationOps, OpSum); err != nil {
		return fmt.Errorf("collective: barrier: %w", err)
	}
	return nil
}
