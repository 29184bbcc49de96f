package collective

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// Barrier synchronizes all ranks of the communicator using the
// dissemination algorithm: ceil(log2 P) rounds in which rank r signals
// (r + 2^k) mod P and waits for (r - 2^k) mod P. The benchmark protocol
// of Section V ("all processes are synchronized with a MPI barrier before
// reaching the broadcast interface") uses it.
func Barrier(c mpi.Comm) error {
	ring, start := spanStart(c)
	if err := barrier(c); err != nil {
		return err
	}
	if ring != nil {
		ring.Record(opBarrier, "", 0, 0, start, time.Since(start))
	}
	return nil
}

func barrier(c mpi.Comm) error {
	p, rank := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	c.NextTagStream()
	for mask := 1; mask < p; mask <<= 1 {
		dst := (rank + mask) % p
		src := (rank - mask + p) % p
		if _, err := c.Sendrecv(nil, dst, core.TagBarrier, nil, src, core.TagBarrier); err != nil {
			return fmt.Errorf("collective: barrier: %w", err)
		}
	}
	return nil
}
