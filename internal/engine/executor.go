package engine

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/metrics"
)

// ExecPolicy selects the rank-execution substrate of a World — how the
// NP rank bodies are scheduled onto the host's cores. The zero value is
// Goroutine, today's one-goroutine-per-rank behavior.
type ExecPolicy int

const (
	// Goroutine runs every rank on its own OS-scheduled goroutine. All
	// runnable ranks compete for cores at once, which is fine for
	// correctness tests and small worlds but turns wall-clock timing into
	// scheduler noise once NP is well past GOMAXPROCS.
	Goroutine ExecPolicy = iota
	// Pooled multiplexes the ranks cooperatively onto a bounded worker
	// pool of min(GOMAXPROCS, Options.MaxWorkers) execution slots: a rank
	// holds a slot only while it runs user code, parks (releasing the
	// slot) at the one blocking point the engine owns — request Wait,
	// which every blocking call ends in — and re-queues for a slot when
	// its operation completes. Blocked ranks therefore cost nothing but
	// their parked goroutine, and at most the pool's width of ranks is
	// runnable at any instant, which keeps np in the hundreds practical
	// for measurement grids.
	Pooled
)

// String names the policy like the CLIs' -exec flag.
func (p ExecPolicy) String() string {
	switch p {
	case Goroutine:
		return "goroutine"
	case Pooled:
		return "pooled"
	default:
		return fmt.Sprintf("ExecPolicy(%d)", int(p))
	}
}

// ParseExecPolicy maps a CLI name to an ExecPolicy.
func ParseExecPolicy(s string) (ExecPolicy, error) {
	switch s {
	case "goroutine":
		return Goroutine, nil
	case "pooled":
		return Pooled, nil
	default:
		return 0, fmt.Errorf("engine: unknown executor %q (goroutine|pooled)", s)
	}
}

// PooledWorkers returns the worker count a pooled executor configured
// with maxWorkers would run: min(GOMAXPROCS, maxWorkers), with zero
// meaning GOMAXPROCS. More slots than cores cannot increase true
// parallelism, so the clamp keeps the runnable set within the hardware.
func PooledWorkers(maxWorkers int) int {
	procs := runtime.GOMAXPROCS(0)
	if maxWorkers <= 0 || maxWorkers > procs {
		return procs
	}
	return maxWorkers
}

// ExecLabel names the substrate a world built from (policy, maxWorkers)
// would run, worker clamp applied — "goroutine", or "pooled(8)". Every
// provenance string in the stack (table descriptions, sample logs,
// benchmark headers, the facade's Cluster.Executor) is built through
// this one helper so they cannot drift from each other or from
// World.ExecutorName.
func ExecLabel(policy ExecPolicy, maxWorkers int) string {
	if policy == Pooled {
		return fmt.Sprintf("pooled(%d)", PooledWorkers(maxWorkers))
	}
	return policy.String()
}

// Executor abstracts how rank bodies execute, so "how ranks run" is a
// pluggable layer under the engine's messaging core. The contract:
//
//   - Launch starts np rank bodies and returns only after every body has
//     returned. Bodies may run with any concurrency the executor chooses.
//   - Park(rank) is called by rank's body immediately before it blocks in
//     an engine operation (the engine owns the blocking point, so user
//     code never needs to call it); Unpark(rank) is called after the
//     operation's wakeup, before user code resumes. Calls are strictly
//     paired per rank and always made from that rank's body.
//
// An executor that bounds concurrency must release capacity in Park and
// reacquire it in Unpark, or blocked ranks would starve runnable ones.
type Executor interface {
	// Name labels the executor for provenance ("goroutine", "pooled(8)").
	Name() string
	Launch(np int, body func(rank int))
	Park(rank int)
	Unpark(rank int)
}

// GoroutineExecutor is the default substrate: one goroutine per rank,
// scheduling left entirely to the Go runtime. Park and Unpark are no-ops
// because a blocked goroutine already costs nothing to the scheduler.
type GoroutineExecutor struct{}

// Name implements Executor.
func (GoroutineExecutor) Name() string { return "goroutine" }

// Launch implements Executor.
func (GoroutineExecutor) Launch(np int, body func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(rank)
		}(r)
	}
	wg.Wait()
}

// Park implements Executor.
func (GoroutineExecutor) Park(int) {}

// Unpark implements Executor.
func (GoroutineExecutor) Unpark(int) {}

// PooledExecutor runs rank bodies over a fixed number of execution
// slots. Each rank still owns a goroutine (its stack holds the user
// code's locals across blocking calls), but only slot holders are
// runnable: Park releases the slot before the rank blocks, Unpark
// re-queues for one after the wakeup. Queued ranks are served in FIFO
// order (channel semantics), so no rank starves.
type PooledExecutor struct {
	workers int
	slots   chan struct{}
	// metrics, when non-nil, receives slot-wait counts (an Unpark that
	// found no free slot and had to queue). NewWorld binds it; a bare
	// executor runs uninstrumented.
	metrics *metrics.Metrics
}

// NewPooledExecutor builds a pool of PooledWorkers(maxWorkers) slots.
func NewPooledExecutor(maxWorkers int) *PooledExecutor {
	n := PooledWorkers(maxWorkers)
	return &PooledExecutor{workers: n, slots: make(chan struct{}, n)}
}

// Workers returns the pool width.
func (p *PooledExecutor) Workers() int { return p.workers }

// Name implements Executor.
func (p *PooledExecutor) Name() string { return ExecLabel(Pooled, p.workers) }

func (p *PooledExecutor) acquire() { p.slots <- struct{}{} }
func (p *PooledExecutor) release() { <-p.slots }

// Launch implements Executor: every body waits for a slot before its
// first instruction and holds one whenever it runs user code.
func (p *PooledExecutor) Launch(np int, body func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p.acquire()
			defer p.release()
			body(rank)
		}(r)
	}
	wg.Wait()
}

// Park implements Executor.
func (p *PooledExecutor) Park(int) { p.release() }

// Unpark implements Executor. The fast path is a non-blocking slot
// grab; falling through to the blocking acquire means the pool was
// saturated and this rank queued for a slot — the contention signal
// the SlotWaits counter exposes.
func (p *PooledExecutor) Unpark(rank int) {
	select {
	case p.slots <- struct{}{}:
		return
	default:
	}
	if p.metrics != nil {
		p.metrics.Add(rank, metrics.SlotWaits, 1)
	}
	p.acquire()
}

// newExecutor realizes the Options' executor choice.
func newExecutor(policy ExecPolicy, maxWorkers int) (Executor, error) {
	if maxWorkers < 0 {
		return nil, fmt.Errorf("engine: MaxWorkers must be non-negative, got %d (0 = GOMAXPROCS)", maxWorkers)
	}
	switch policy {
	case Goroutine:
		if maxWorkers != 0 {
			return nil, fmt.Errorf("engine: MaxWorkers is pooled-only (set Options.Executor = Pooled)")
		}
		return GoroutineExecutor{}, nil
	case Pooled:
		return NewPooledExecutor(maxWorkers), nil
	default:
		return nil, fmt.Errorf("engine: unknown executor policy %d", int(policy))
	}
}

// parkRank marks rank blocked for the deadlock detector and releases its
// execution slot. The engine's one blocking select (request.harvest, under
// Wait) is bracketed by parkRank/unparkRank, so a pooled world never
// wedges on a blocked rank holding a slot.
func (w *World) parkRank(rank int) {
	w.metrics.Add(rank, metrics.Parks, 1)
	w.state[rank].Store(1)
	w.exec.Park(rank)
}

// unparkRank reacquires an execution slot and marks rank running again.
// The slot comes first: the rank is not runnable until it holds one, and
// keeping state blocked meanwhile preserves the watchdog's invariant
// that only slot holders can be mid-user-code.
func (w *World) unparkRank(rank int) {
	w.exec.Unpark(rank)
	w.state[rank].Store(0)
	w.metrics.Add(rank, metrics.Unparks, 1)
}
