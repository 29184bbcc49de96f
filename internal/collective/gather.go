package collective

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// Scatter, Gather and Allgather run the broadcast's own phase schedules
// through the executor (runStatic), over a p·chunk-byte program buffer
// in which chunk k belongs to relative rank k. Scatter and Gather hold
// their part of it in pooled scratch: the whole buffer on the root,
// rotated from or into rank order, and its subtree's Extent·chunk bytes
// on every other rank. The scratch is released only on the clean path:
// an error means the world aborted, and a peer may still be copying
// through the buffer, so it is abandoned to the GC rather than recycled
// (the rule the engine's own pools follow — see internal/engine/pool.go).
// A zero chunk returns at once on every rank: no zero-byte messages, no
// zero-length scratch, no span.

// gatherOps is the binomial scatter tree run backwards: every rank
// receives its children's subtree blocks, smallest first, then sends its
// own block to its parent.
var gatherOps = sched.Emitter(core.ScatterOps).Reverse()

// Scatter distributes equal chunk-byte slices of sendBuf from root: rank
// i receives sendBuf[i*chunk : (i+1)*chunk] into recvBuf. Only the root's
// sendBuf is read; every rank's recvBuf must be at least chunk bytes.
// It runs the broadcast's binomial scatter (core.ScatterOps): interior
// ranks receive their whole subtree block and forward sub-blocks
// downward, so the root is not a serial bottleneck.
func Scatter(c mpi.Comm, sendBuf []byte, chunk int, recvBuf []byte, root int) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	p, rank := c.Size(), c.Rank()
	if chunk < 0 {
		return fmt.Errorf("collective: scatter: negative chunk %d", chunk)
	}
	if len(recvBuf) < chunk {
		return fmt.Errorf("collective: scatter: recv buffer %d bytes < chunk %d", len(recvBuf), chunk)
	}
	if rank == root && len(sendBuf) < p*chunk {
		return fmt.Errorf("collective: scatter: send buffer %d bytes < %d", len(sendBuf), p*chunk)
	}
	if chunk == 0 {
		return nil
	}
	rel := core.RelRank(rank, root, p)
	scratch := bufpool.Get(core.Extent(rel, p) * chunk)
	tmp := scratch.B
	if rel == 0 {
		for k := 0; k < p; k++ {
			src := core.AbsRank(k, root, p)
			copy(tmp[k*chunk:(k+1)*chunk], sendBuf[src*chunk:(src+1)*chunk])
		}
	}
	if err := runStatic(c, opScatter, tmp, rel*chunk, p*chunk, root, core.ScatterOps, OpSum); err != nil {
		return fmt.Errorf("collective: scatter: %w", err)
	}
	copy(recvBuf[:chunk], tmp[:chunk])
	scratch.Release()
	return nil
}

// Gather collects chunk bytes from every rank's sendBuf into the root's
// recvBuf (rank i's contribution lands at recvBuf[i*chunk:(i+1)*chunk]).
// It runs Scatter's tree backwards (sched.Emitter.Reverse): leaves send
// up, interior ranks assemble their subtree block before forwarding it.
func Gather(c mpi.Comm, sendBuf []byte, chunk int, recvBuf []byte, root int) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	p, rank := c.Size(), c.Rank()
	if chunk < 0 {
		return fmt.Errorf("collective: gather: negative chunk %d", chunk)
	}
	if len(sendBuf) < chunk {
		return fmt.Errorf("collective: gather: send buffer %d bytes < chunk %d", len(sendBuf), chunk)
	}
	if rank == root && len(recvBuf) < p*chunk {
		return fmt.Errorf("collective: gather: recv buffer %d bytes < %d", len(recvBuf), p*chunk)
	}
	if chunk == 0 {
		return nil
	}
	rel := core.RelRank(rank, root, p)
	scratch := bufpool.Get(core.Extent(rel, p) * chunk)
	tmp := scratch.B
	copy(tmp[:chunk], sendBuf[:chunk])
	if err := runStatic(c, opGather, tmp, rel*chunk, p*chunk, root, gatherOps, OpSum); err != nil {
		return fmt.Errorf("collective: gather: %w", err)
	}
	if rel == 0 {
		for k := 0; k < p; k++ {
			dst := core.AbsRank(k, root, p)
			copy(recvBuf[dst*chunk:(dst+1)*chunk], tmp[k*chunk:(k+1)*chunk])
		}
	}
	scratch.Release()
	return nil
}

// Allgather concatenates every rank's chunk-byte sendBuf into every
// rank's recvBuf (size-p*chunk, rank i's data at offset i*chunk). It runs
// the native broadcast's enclosed ring (core.RingNativeOps) from root 0:
// p-1 steps, each rank forwarding the block it received in the previous
// step. This is the textbook setting where the ring allgather is
// bandwidth-optimal — unlike inside the broadcast, where the scatter
// phase's subtree ownership makes the enclosed ring wasteful.
func Allgather(c mpi.Comm, sendBuf []byte, chunk int, recvBuf []byte) error {
	p, rank := c.Size(), c.Rank()
	if chunk < 0 {
		return fmt.Errorf("collective: allgather: negative chunk %d", chunk)
	}
	if len(sendBuf) < chunk {
		return fmt.Errorf("collective: allgather: send buffer %d bytes < chunk %d", len(sendBuf), chunk)
	}
	if len(recvBuf) < p*chunk {
		return fmt.Errorf("collective: allgather: recv buffer %d bytes < %d", len(recvBuf), p*chunk)
	}
	if chunk == 0 {
		return nil
	}
	copy(recvBuf[rank*chunk:(rank+1)*chunk], sendBuf[:chunk])
	if err := runStatic(c, opAllgather, recvBuf[:p*chunk], 0, p*chunk, 0, core.RingNativeOps, OpSum); err != nil {
		return fmt.Errorf("collective: allgather: %w", err)
	}
	return nil
}
