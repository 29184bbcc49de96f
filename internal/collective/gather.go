package collective

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/tune"
)

// Scatter, Gather and Allgather run the broadcast's own phase schedules
// through the executor (Calls.run), over a p·chunk-byte program buffer
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

// checkChunks holds a chunked collective's buffers to chunk: mine, the
// calling rank's own chunk (the one Scatter receives, the one Gather and
// Allgather send), must hold it, and all, the p·chunk-byte buffer of
// every chunk, must hold them where whole says it is significant.
func checkChunks(c mpi.Comm, op string, chunk int, mine, all []byte, whole bool) error {
	mineName, allName := "send", "recv"
	if op == opScatter {
		mineName, allName = allName, mineName
	}
	if chunk < 0 {
		return fmt.Errorf("collective: %s: negative chunk %d", op, chunk)
	}
	if len(mine) < chunk {
		return fmt.Errorf("collective: %s: %s buffer %d bytes < chunk %d", op, mineName, len(mine), chunk)
	}
	if p := c.Size(); whole && len(all) < p*chunk {
		return fmt.Errorf("collective: %s: %s buffer %d bytes < %d", op, allName, len(all), p*chunk)
	}
	return nil
}

// Scatter distributes equal chunk-byte slices of sendBuf from root: rank
// i receives sendBuf[i*chunk : (i+1)*chunk] into recvBuf. Only the root's
// sendBuf is read; every rank's recvBuf must be at least chunk bytes.
// It runs the broadcast's binomial scatter (core.ScatterOps): interior
// ranks receive their whole subtree block and forward sub-blocks
// downward, so the root is not a serial bottleneck.
func (k *Calls) Scatter(c mpi.Comm, sendBuf []byte, chunk int, recvBuf []byte, root int) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	if err := checkChunks(c, opScatter, chunk, recvBuf, sendBuf, c.Rank() == root); err != nil || chunk == 0 {
		return err
	}
	p := c.Size()
	rel := core.RelRank(c.Rank(), root, p)
	scratch := bufpool.Get(core.Extent(rel, p) * chunk)
	tmp := scratch.B
	if rel == 0 {
		for i := 0; i < p; i++ {
			src := core.AbsRank(i, root, p)
			copy(tmp[i*chunk:(i+1)*chunk], sendBuf[src*chunk:(src+1)*chunk])
		}
	}
	if err := k.run(c, opScatter, core.ScatterOps, tune.Decision{}, tmp, rel*chunk, p*chunk, root, OpSum); err != nil {
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
func (k *Calls) Gather(c mpi.Comm, sendBuf []byte, chunk int, recvBuf []byte, root int) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	if err := checkChunks(c, opGather, chunk, sendBuf, recvBuf, c.Rank() == root); err != nil || chunk == 0 {
		return err
	}
	p := c.Size()
	rel := core.RelRank(c.Rank(), root, p)
	scratch := bufpool.Get(core.Extent(rel, p) * chunk)
	tmp := scratch.B
	copy(tmp[:chunk], sendBuf[:chunk])
	if err := k.run(c, opGather, gatherOps, tune.Decision{}, tmp, rel*chunk, p*chunk, root, OpSum); err != nil {
		return fmt.Errorf("collective: gather: %w", err)
	}
	if rel == 0 {
		for i := 0; i < p; i++ {
			dst := core.AbsRank(i, root, p)
			copy(recvBuf[dst*chunk:(dst+1)*chunk], tmp[i*chunk:(i+1)*chunk])
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
func (k *Calls) Allgather(c mpi.Comm, sendBuf []byte, chunk int, recvBuf []byte) error {
	if err := checkChunks(c, opAllgather, chunk, sendBuf, recvBuf, true); err != nil || chunk == 0 {
		return err
	}
	p, rank := c.Size(), c.Rank()
	copy(recvBuf[rank*chunk:(rank+1)*chunk], sendBuf[:chunk])
	if err := k.run(c, opAllgather, core.RingNativeOps, tune.Decision{}, recvBuf[:p*chunk], 0, p*chunk, 0, OpSum); err != nil {
		return fmt.Errorf("collective: allgather: %w", err)
	}
	return nil
}
