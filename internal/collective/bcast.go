package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/tune"
)

func checkRoot(c mpi.Comm, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("collective: %w: root %d (size %d)", mpi.ErrRank, root, c.Size())
	}
	return nil
}

// Bcast broadcasts buf from root using MPICH3's native algorithm
// selection (short: binomial; medium power-of-two: scatter + recursive
// doubling; long or medium non-power-of-two: scatter + enclosed ring),
// dispatched through the registry by the default tuner. It is Broadcast
// with zero Options.
func Bcast(c mpi.Comm, buf []byte, root int) error {
	return Broadcast(c, buf, root, Options{})
}

// BcastOpt is Bcast with the paper's tuned ring allgather on the
// long-message and medium-non-power-of-two paths.
func BcastOpt(c mpi.Comm, buf []byte, root int) error {
	return Broadcast(c, buf, root, Options{Tuner: tune.MPICH3{Tuned: true}})
}
