package collective

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/tune"
)

// Barrier synchronizes all ranks of the communicator: Calls.Barrier for
// this call only.
func Barrier(c mpi.Comm) error { return (*Calls)(nil).Barrier(c) }

// Barrier synchronizes all ranks of the communicator by running the
// dissemination barrier (core.DisseminationOps) through the executor:
// ceil(log2 P) rounds in which rank r signals (r + 2^k) mod P and waits
// for (r - 2^k) mod P. The benchmark protocol of Section V ("all
// processes are synchronized with a MPI barrier before reaching the
// broadcast interface") uses it.
func (k *Calls) Barrier(c mpi.Comm) error {
	if err := k.run(c, opBarrier, core.DisseminationOps, tune.Decision{}, nil, 0, 0, 0, OpSum); err != nil {
		return fmt.Errorf("collective: barrier: %w", err)
	}
	return nil
}
