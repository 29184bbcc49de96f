package bcast

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/collective"
)

// ErrStaleHandle reports use of a Persistent handle, or of a
// communicating Comm method (every one but Rank, Size, NumNodes,
// Placement and Decision), after the Run that created it ended. Errors
// wrap it together with the run's own outcome, so a handle orphaned by a
// canceled run explains both what it is and why its run died. The check
// comes before anything else, so a stale Comm never sends, never waits
// for a message, and never reaches the Plans its rank cached, which went
// back to the pool when the rank body returned.
var ErrStaleHandle = errors.New("bcast: persistent handle outlived its run")

// Persistent is a persistent broadcast: the tuner decision, the
// validated registry dispatch and (for static algorithms) the
// communication schedule of one Comm.Bcast call, resolved once by
// Comm.BcastInit and executed many times by Start/Wait. In the steady
// state a Start/Wait pair performs no selection work and no
// allocations — it is the serving-workload fast path, gated by
// testing.AllocsPerRun the same way the per-call Bcast is.
//
// Lifecycle (mirroring MPI persistent requests): Init -> (Start ->
// Wait)* -> Free, with Run as a Start+Wait convenience. Start marks the
// operation active and is purely local; Wait executes the broadcast and
// blocks until this rank's part completes. Every rank of the
// communicator must create its own handle with identical arguments and
// drive it in the same order — a Start/Wait round is collective exactly
// like the Bcast call it replaces.
//
// Buffer ownership: the handle captures buf at Init (and Rebind); the
// caller must not touch it between Start and the completion of Wait,
// and must write the next payload into the same buffer (on the root)
// before the next Start. The handle never keeps or recycles the buffer
// after Free.
//
// A handle is bound to the Run it was created in. When that Run returns
// — cleanly, by error, or by cancellation mid-Start — the handle is
// retired and every later use fails with an error wrapping
// ErrStaleHandle and the run's outcome. A handle not freed has its edges
// released when its rank body returns, as Free would, so their cells go
// back to the buffer pool for the next world's binds. Handles are
// per-rank-goroutine objects, like the Comm they came from: not safe
// for concurrent use.
type Persistent struct {
	c    Comm
	buf  []byte
	plan *collective.Plan

	active bool
	freed  bool
}

// BcastInit builds a persistent broadcast of buf from root: it resolves
// the cluster defaults merged with opts into a tuner decision, binds
// and validates the registry dispatch, compiles this rank's operations
// of the static schedule when the algorithm has one, binds the edges
// its in-process messages of at most 1 KiB (the engine's bindLimit)
// travel on (no matching per message; see the README's persistent
// section), and pre-registers pooled staging for the payload so the
// first Start/Wait already runs allocation-free. It allocates little
// beyond what the handle keeps: the rank's ops once, at their length,
// and the edges' bookkeeping, their cells coming from the buffer pool
// (at np 64, 4 KiB, ~11 KiB per rank of a cold cluster;
// TestColdBcastInitAllocs).
// Collective: every rank must call it with the same root, length and
// options, like the Bcast it replaces.
func (c Comm) BcastInit(buf []byte, root int, opts ...CallOption) (*Persistent, error) {
	if err := c.epochAlive(); err != nil {
		return nil, fmt.Errorf("bcast: bcast init: %w", err)
	}
	plan, err := collective.NewPlan(c.mc, len(buf), root, c.defaults.merge(opts))
	if err != nil {
		return nil, fmt.Errorf("bcast: bcast init: %w", err)
	}
	warmStaging(len(buf), c.Size(), plan.Decision().SegSize)
	h := &Persistent{c: c, buf: buf, plan: plan}
	c.rank.kept = append(c.rank.kept, h)
	return h, nil
}

// warmStaging touches the pool size classes a broadcast of n bytes over
// p ranks draws its staging from — the whole payload, the per-rank
// scatter chunk, and the pipeline segment — so the first execution
// finds them populated instead of allocating. Best-effort: pools are
// shared and unbounded misses stay correct, just not allocation-free.
func warmStaging(n, p, segSize int) {
	for _, sz := range [3]int{n, (n + p - 1) / p, segSize} {
		if sz > 0 {
			bufpool.Get(sz).Release()
		}
	}
}

// Start marks the persistent broadcast active. It is purely local —
// validation and an activation flag, no communication, no allocation —
// so a serving loop can Start before the payload's consumers are ready
// and pay the transfer only in Wait.
func (h *Persistent) Start() error {
	if h.freed {
		return fmt.Errorf("bcast: start: handle already freed")
	}
	if h.active {
		return fmt.Errorf("bcast: start: operation already started (Wait it first)")
	}
	if err := h.c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: start: %w", err)
	}
	h.active = true
	return nil
}

// Wait executes the started broadcast and blocks until this rank's part
// completes, leaving the handle ready for the next Start. On the root
// the buffer is the message; everywhere else it is overwritten with it
// — byte-identical to the equivalent Comm.Bcast, because Wait
// dispatches through the same registered implementation the per-call
// path uses.
func (h *Persistent) Wait(ctx context.Context) error {
	if !h.active {
		return fmt.Errorf("bcast: wait: no started operation (call Start first)")
	}
	h.active = false
	if err := h.c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: wait: %w", err)
	}
	return h.plan.Execute(h.c.bind(ctx), h.buf)
}

// Run is the Start/Wait convenience for callers that don't separate
// activation from completion.
func (h *Persistent) Run(ctx context.Context) error {
	if err := h.Start(); err != nil {
		return err
	}
	return h.Wait(ctx)
}

// Rebind points the handle at a new buffer. Same length: free — the
// bound decision and schedule are reused untouched (the
// double-buffered serving pattern). Different length: the decision is
// re-resolved and re-validated, like a fresh Init, the new schedule's
// edges are bound and the old ones released. Only an inactive handle may
// be rebound.
func (h *Persistent) Rebind(buf []byte) error {
	if h.freed {
		return fmt.Errorf("bcast: rebind: handle already freed")
	}
	if h.active {
		return fmt.Errorf("bcast: rebind: operation in flight (Wait it first)")
	}
	if err := h.c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: rebind: %w", err)
	}
	if err := h.plan.Rebind(h.c.mc, len(buf)); err != nil {
		return fmt.Errorf("bcast: rebind: %w", err)
	}
	warmStaging(len(buf), h.c.Size(), h.plan.Decision().SegSize)
	h.buf = buf
	return nil
}

// Free retires the handle and releases the edges it bound. Freeing an
// active operation is an error (Wait it first); freeing an already-freed
// handle is a no-op. Free is local and never touches the buffer. A
// handle not freed is released when its rank body returns; Free lets
// its edges go sooner, and a freed handle is not released again.
func (h *Persistent) Free() error {
	if h.active {
		return fmt.Errorf("bcast: free: operation in flight (Wait it first)")
	}
	// A handle whose Run has ended has nothing to release: its rank's
	// end released its edges, and its world may be running the next Run.
	if !h.freed && h.c.epochAlive() == nil {
		h.plan.Release()
		r := h.c.rank
		r.kept = slices.DeleteFunc(r.kept, func(k *Persistent) bool { return k == h })
	}
	h.freed = true
	return nil
}

// Decision reports the resolved algorithm selection the handle executes.
func (h *Persistent) Decision() Decision {
	return h.plan.Decision()
}
