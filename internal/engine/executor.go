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
// this one helper so they cannot drift from each other.
func ExecLabel(policy ExecPolicy, maxWorkers int) string {
	if policy == Pooled {
		return fmt.Sprintf("pooled(%d)", PooledWorkers(maxWorkers))
	}
	return policy.String()
}

// execSlots realizes the Options' executor choice: nil on the goroutine
// substrate, where a blocked goroutine already costs the scheduler
// nothing, and a channel of PooledWorkers(maxWorkers) execution slots on
// the pooled one, where a rank holds a slot (a value in the channel)
// exactly while it runs user code. Queued ranks are served in FIFO order
// (channel semantics), so no rank starves.
func execSlots(policy ExecPolicy, maxWorkers int) (chan struct{}, error) {
	if maxWorkers < 0 {
		return nil, fmt.Errorf("engine: MaxWorkers must be non-negative, got %d (0 = GOMAXPROCS)", maxWorkers)
	}
	switch policy {
	case Goroutine:
		if maxWorkers != 0 {
			return nil, fmt.Errorf("engine: MaxWorkers is pooled-only (set Options.Executor = Pooled)")
		}
		return nil, nil
	case Pooled:
		return make(chan struct{}, PooledWorkers(maxWorkers)), nil
	default:
		return nil, fmt.Errorf("engine: unknown executor policy %d", int(policy))
	}
}

// launch starts the np rank bodies and returns once every one has
// returned. A rank goroutine grows its stack before its body runs
// (growStack). On the pooled substrate a body takes a slot before its
// first instruction and holds one whenever it runs user code.
func (w *World) launch(body func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < w.np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			growStack()
			stackProbe(rank)
			if w.slots != nil {
				w.slots <- struct{}{}
				defer func() { <-w.slots }()
			}
			body(rank)
			stackProbe(rank)
		}(r)
	}
	wg.Wait()
}

// rankStack is the frame growStack pushes: any size from about 3 to 7
// KiB grows a 2 KiB stack to 8 KiB in one step, and 4 KiB is the middle
// of that band. The package doc has the sweep that picked it.
const rankStack = 4 << 10

// growStack grows the calling goroutine's stack to fit a rankStack frame.
//
//go:noinline
func growStack() {
	var frame [rankStack]byte
	keep(frame[:])
}

//go:noinline
func keep([]byte) {}

// stackProbe is called by every rank goroutine after growStack and again
// when its body returns; a test sees from it whether the stack moved.
var stackProbe = func(rank int) {}

// parkRank marks rank blocked for the deadlock detector and releases its
// execution slot. The engine's one blocking select (request.harvest, under
// Wait) is bracketed by parkRank/unparkRank, so a pooled world never
// wedges on a blocked rank holding a slot.
func (w *World) parkRank(rank int) {
	w.metrics.Add(rank, metrics.Parks, 1)
	w.state[rank].Store(1)
	if w.slots != nil {
		<-w.slots
	}
}

// unparkRank reacquires an execution slot and marks rank running again.
// The slot comes first: the rank is not runnable until it holds one, and
// keeping state blocked meanwhile preserves the watchdog's invariant
// that only slot holders can be mid-user-code. The fast path is a
// non-blocking grab; falling through to the blocking send means the pool
// was saturated and this rank queued for a slot — the contention signal
// the SlotWaits counter exposes.
func (w *World) unparkRank(rank int) {
	if w.slots != nil {
		select {
		case w.slots <- struct{}{}:
		default:
			w.metrics.Add(rank, metrics.SlotWaits, 1)
			w.slots <- struct{}{}
		}
	}
	w.state[rank].Store(0)
	w.metrics.Add(rank, metrics.Unparks, 1)
}
