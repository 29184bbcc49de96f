// Package engine is the in-process MPI-like runtime: it executes NP rank
// bodies over one of two execution substrates (see ExecPolicy) and provides
// point-to-point messaging with MPI matching semantics ((context, source,
// tag) with wildcards, pairwise non-overtaking order), an eager protocol
// for small messages (payload copied into the receiver's unexpected
// queue, up to a per-sender credit window) and a rendezvous protocol for
// large ones and for eager ones past the window (the send completes when
// the receiver has copied directly from the sender's buffer — the
// single-copy large-transfer path the paper's platforms use for the
// message sizes under study).
//
// There is one way to send and one place to block. isend and irecv start
// an operation and never block; request.Wait finishes one and is the only
// blocking point. Send, Recv and Sendrecv are those calls in a row, so
// the send-only and receive-only ring steps the paper's optimisation
// produces run the same code as the full exchanges beside them. A caller
// that knows its receives ahead — a collective's executor, ops before it
// runs them — posts them with Prepost: irecv into a completed request
// the caller owns and the engine re-arms, so a sender finds them waiting
// and copies once, straight into place. The same caller starts the
// eager-sized sends whose buffers it will not write again before the end
// with Presend and completes them all with WaitPresends: isend, told the
// buffer stays put, never stages the payload, so a receiver that posts
// late still copies once, straight out of the sender's buffer (late.go).
// A caller that runs one schedule again and again — a collective
// broadcast Plan, kept or held by a per-call cache — binds its edges
// with Bind: a message of at most bindLimit (1 KiB) bytes between two
// ranks of this process then goes through a ring of cells its edge
// owns, past the queues, moved by the binding's Move. One rule,
// edgeCells, gives an edge its cells: a credit window of them on a rank
// whose edges carry one message per run (a tree), two runs' worth on
// any other (edge.go).
//
// How ranks run is the world's choice of substrate: the default
// (Goroutine) gives every rank an OS-scheduled goroutine, while Pooled
// (Options.Executor = Pooled) multiplexes ranks cooperatively onto a
// bounded set of execution slots, a channel the World holds — the
// engine owns the blocking point, so a rank parks (releasing its slot)
// whenever it would block and re-queues when its operation completes.
// The pool keeps the runnable set within min(GOMAXPROCS,
// Options.MaxWorkers), which is what makes wall-clock measurement of
// worlds with np in the hundreds meaningful instead of scheduler noise.
//
// Which core a woken rank runs on is the Go scheduler's choice, and its
// choice is local: a channel send that wakes a parked goroutine (ready)
// puts it in the sender's runnext slot, where it waits until the sender
// blocks; an idle core rarely steals it first. For a rank that copied a
// large message that means the rank it released waits out the copier's
// next copy too, and a ring of large copies runs on one core. So a
// local delivery of at least yieldFloor bytes that wakes a parked rank
// ends with runtime.Gosched (handOff, request.go), which puts the copier
// on the global run queue: the woken rank runs on this core, and an
// idle one takes the copier. Smaller deliveries keep the locality, which
// is cheaper than a yield for them; remote deliveries and bound edges
// never yield.
//
// The engine substitutes for a real MPI library plus cluster: every
// algorithm really moves its bytes through shared memory, so correctness
// tests and user-level wall-clock benchmarks run against it. Timing of
// the paper's cluster experiments is modelled separately by
// internal/netsim.
//
// # Steady-state allocation discipline
//
// A World separates boot cost from per-operation cost. Boot allocates
// the endpoints, executor and per-rank scratch once; after that, a
// clean world may Run any number of times, and the message path recycles
// its per-message objects — eager payload copies (inside the envelope up
// to inlinePayload bytes, via internal/bufpool above it),
// unexpected-queue envelopes, posted receives and rendezvous states —
// through free lists, while a blocking call's request lives in the
// call's own frame, and an early-posted receive's request and a late
// send's ring slot each keep the object their message meets in. The
// ownership
// rules for those pooled objects (who may hold a pooled buffer, and
// until when) are spelled out in pool.go; the short version is that
// ownership follows the message, and only the final consumer returns an
// object to its pool, always on a clean completion path — aborted
// operations abandon their objects to the garbage collector rather than
// risk recycling something a peer still references.
//
// The bookkeeping follows the message too: what a transfer counts — its
// metrics, its progress for the deadlock watchdog, its bufpool get or put
// — it counts on a cache line owned by the rank doing the counting, so
// the only memory a message moves between cores is the destination
// endpoint and the payload.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/transport"
)

// DefaultEagerLimit is the eager/rendezvous protocol switch-over in bytes
// when Options.EagerLimit is zero. MPICH's default nemesis eager limit is
// 64 KiB.
const DefaultEagerLimit = 64 << 10

// DefaultEagerCredits is the default per-(receiver, sender) window of
// eager messages buffered but not yet received. Real MPI transports bound
// their unexpected-message storage and flow-control senders once the
// window fills; without this, a broadcast loop whose tuned root never
// blocks would flood receivers' queues without bound.
const DefaultEagerCredits = 64

// Options configures a World.
type Options struct {
	// NP is the number of ranks (required, > 0).
	NP int
	// Topology places ranks on nodes; nil means all ranks on one node.
	// It must have exactly NP ranks.
	Topology *topology.Map
	// EagerLimit is the largest payload sent eagerly; larger messages use
	// the rendezvous protocol. Zero selects DefaultEagerLimit; negative
	// forces rendezvous for every message.
	EagerLimit int
	// EagerCredits bounds the eager messages one sender may have buffered
	// at one receiver (flow control). A send past the window is not
	// buffered: it stays in the sender's buffer as a zero-copy envelope
	// and completes when the receiver takes it, like a rendezvous. Zero
	// selects DefaultEagerCredits; negative means unlimited.
	EagerCredits int
	// Timeout aborts the whole run if it exceeds this wall-clock bound.
	// Zero selects 120 s.
	Timeout time.Duration
	// DeadlockAfter is how long every live rank must sit blocked in a
	// communication call with zero progress before the watchdog declares
	// deadlock. Zero selects 500 ms; negative disables detection.
	DeadlockAfter time.Duration
	// Executor selects the rank-execution substrate (default Goroutine:
	// one OS-scheduled goroutine per rank). Pooled runs ranks over a
	// bounded cooperative worker pool — see ExecPolicy.
	Executor ExecPolicy
	// MaxWorkers bounds the Pooled executor's concurrency: the pool runs
	// min(GOMAXPROCS, MaxWorkers) slots. Zero selects GOMAXPROCS;
	// negative is rejected, and any non-zero value is rejected with the
	// Goroutine executor (nothing would honor it).
	MaxWorkers int
	// Metrics receives the world's instrumentation. It must be sized for
	// NP ranks. Nil means the world creates its own (counters are always
	// on); passing one in lets a caller accumulate across sequential
	// worlds — the facade's Cluster hands every fallback boot the same
	// Metrics — and enables operation spans when it was built with a
	// span capacity.
	Metrics *metrics.Metrics
	// Transport is the point-to-point substrate for destinations it
	// declares wired (see internal/transport). Nil selects the
	// in-process chan transport — every rank hosted, nothing wired,
	// byte-identical to the pre-seam engine. The world does not own the
	// transport: the caller that built it closes it, after the world's
	// last run.
	Transport transport.Transport
}

// World is a fixed-size group of ranks with message endpoints. A World
// may host any number of sequential Runs as long as every one finishes
// cleanly: rank bodies are re-launched onto the live endpoints, the
// watchdog re-arms, and the boot-time allocations (endpoints, executor,
// per-rank state) are paid exactly once — the split between world-boot
// cost and per-operation cost that makes steady-state serving viable.
// A world that aborted (rank error, panic, cancellation, timeout,
// deadlock) is spent: its pending operations unwound through the closed
// abort channel, so further Runs are refused and the caller must boot a
// fresh world. Reusable reports which side of that line a world is on.
type World struct {
	np           int
	topo         *topology.Map
	eagerLimit   int
	eagerCredits int // 0 = unlimited
	timeout      time.Duration
	deadlock     time.Duration

	// slots holds the pooled substrate's execution slots (executor.go);
	// nil on the goroutine substrate.
	slots chan struct{}

	// metrics is never nil: NewWorld wires the caller's Metrics or
	// creates a counters-only one, so every counter site updates
	// unconditionally (one atomic add — no branch, no allocation).
	metrics *metrics.Metrics

	// trans is never nil (default transport.Chan). wired caches whether
	// any destination crosses it — the single boolean the in-process
	// send path pays for the seam. hosted[r] caches trans.Hosted(r):
	// only hosted ranks execute fn; the rest belong to peer processes.
	trans  transport.Transport
	wired  bool
	hosted []bool

	// Remote rendezvous in flight: correlation id → the blocked
	// sender's rdvState, signaled by remoteHandler.Deliver on RdvAck.
	rdvSeq    atomic.Uint64
	remoteMu  sync.Mutex
	remoteRdv map[uint64]*rdvState

	eps    []*endpoint
	ctxSeq atomic.Int64

	// aborted is closed, and abortFlag set just before, when the world
	// aborts: the selects that wait on an abort (harvest, the watchdog)
	// need the channel, everything that only asks whether one happened
	// (isAborted) loads the flag.
	aborted   chan struct{}
	abortFlag atomic.Bool
	abortOnce sync.Once
	abortErr  atomic.Value // error

	// progress[r] counts the completed transfers charged to world rank r
	// (see progressed); only the watchdog reads them, as a sum.
	progress []progressShard
	// state[r]: 0 = running, 1 = blocked in a communication call, 2 = done.
	state []atomic.Int32
	// running guards against concurrent Runs on one world; sequential
	// reuse resets the per-run state below.
	running atomic.Bool

	// Per-run scratch, pre-sized at boot and reset in place between
	// runs so a reused world's Run allocates O(np) at most (goroutine
	// launches), never O(messages).
	members []int   // world communicator members (identity), shared by every run
	comms   []comm  // per-rank world communicators, rewritten per run
	errs    []error // per-rank run errors, cleared per run
}

// progressShard is one rank's progress count on a cache line of its own,
// so a message dirties no line that a third rank writes.
type progressShard struct {
	n atomic.Int64
	_ [128 - 8]byte
}

// progressed records that a transfer involving world rank rank moved: a
// message was delivered, buffered or consumed. The caller is that rank's
// goroutine, or the transport's delivery goroutine acting for it.
func (w *World) progressed(rank int) { w.progress[rank].n.Add(1) }

// progressSum is the watchdog's reading: it changes whenever any rank's
// count does (counts only grow, so no two different states sum alike).
func (w *World) progressSum() int64 {
	var sum int64
	for r := range w.progress {
		sum += w.progress[r].n.Load()
	}
	return sum
}

// NewWorld validates opts and builds a World.
func NewWorld(opts Options) (*World, error) {
	if opts.NP <= 0 {
		return nil, fmt.Errorf("engine: NP must be positive, got %d", opts.NP)
	}
	topo := opts.Topology
	if topo == nil {
		topo = topology.SingleNode(opts.NP)
	}
	if topo.NP() != opts.NP {
		return nil, fmt.Errorf("engine: topology has %d ranks, want %d", topo.NP(), opts.NP)
	}
	eager := opts.EagerLimit
	switch {
	case eager == 0:
		eager = DefaultEagerLimit
	case eager < 0:
		eager = -1 // every message rendezvous (even empty ones)
	}
	credits := opts.EagerCredits
	switch {
	case credits == 0:
		credits = DefaultEagerCredits
	case credits < 0:
		credits = 0 // unlimited
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 120 * time.Second
	}
	dl := opts.DeadlockAfter
	if dl == 0 {
		dl = 500 * time.Millisecond
	}
	trans := opts.Transport
	if trans == nil {
		trans = transport.Chan{}
	}
	wired := false
	hosted := make([]bool, opts.NP)
	for r := 0; r < opts.NP; r++ {
		hosted[r] = trans.Hosted(r)
		wired = wired || trans.Wire(r)
	}
	if wired {
		// Wire traffic makes local progress accounting blind: every
		// hosted rank legitimately blocks while datagrams (or a peer
		// process) are in flight, so deadlock detection would fire on
		// ordinary latency. The hard wall-clock timeout still guards.
		dl = -1
	}
	slots, err := execSlots(opts.Executor, opts.MaxWorkers)
	if err != nil {
		return nil, err
	}
	mx := opts.Metrics
	if mx == nil {
		mx = metrics.New(opts.NP, 0)
	} else if mx.NP() != opts.NP {
		return nil, fmt.Errorf("engine: Metrics sized for %d ranks, want %d", mx.NP(), opts.NP)
	}
	w := &World{
		slots:        slots,
		metrics:      mx,
		np:           opts.NP,
		topo:         topo,
		eagerLimit:   eager,
		eagerCredits: credits,
		timeout:      timeout,
		deadlock:     dl,
		trans:        trans,
		wired:        wired,
		hosted:       hosted,
		remoteRdv:    map[uint64]*rdvState{},
		eps:          make([]*endpoint, opts.NP),
		aborted:      make(chan struct{}),
		progress:     make([]progressShard, opts.NP),
		state:        make([]atomic.Int32, opts.NP),
		members:      make([]int, opts.NP),
		comms:        make([]comm, opts.NP),
		errs:         make([]error, opts.NP),
	}
	for i := range w.eps {
		w.eps[i] = newEndpoint(opts.NP)
	}
	for i := range w.members {
		w.members[i] = i
	}
	if bm, ok := trans.(interface{ BindMetrics(*metrics.Metrics) }); ok {
		bm.BindMetrics(mx)
	}
	if wired {
		if err := trans.Start(remoteHandler{w}); err != nil {
			return nil, fmt.Errorf("engine: transport start: %w", err)
		}
	}
	return w, nil
}

// Reusable reports whether the world can host another Run: no Run is in
// progress and the world has not aborted. It is advisory — callers like
// bcast.Cluster consult it to decide between reusing a booted world and
// falling back to a fresh boot. A world whose last Run returned a
// non-nil error of any kind should be discarded even if Reusable still
// reports true (a strictness failure leaves stale messages behind).
func (w *World) Reusable() bool {
	return !w.isAborted() && !w.running.Load()
}

// isAborted reports whether the world has aborted.
func (w *World) isAborted() bool { return w.abortFlag.Load() }

func (w *World) abort(err error) {
	w.abortOnce.Do(func() {
		w.metrics.Add(0, metrics.AbortedRuns, 1)
		w.abortErr.Store(err)
		w.abortFlag.Store(true)
		close(w.aborted)
	})
}

func (w *World) abortError() error {
	if err, ok := w.abortErr.Load().(error); ok {
		return fmt.Errorf("%w: %w", mpi.ErrAborted, err)
	}
	return mpi.ErrAborted
}

// Run executes fn concurrently on every rank and waits for all of them.
// A rank returning a non-nil error (or panicking) aborts the world,
// unblocking every pending operation with mpi.ErrAborted. After a clean
// finish, Run fails if any endpoint still holds unconsumed messages —
// every sent message must have been received, which catches mismatched
// schedules that MPI itself would let leak. After a clean (nil-error)
// finish the world may Run again; an aborted world refuses further
// Runs.
func (w *World) Run(fn func(mpi.Comm) error) error {
	return w.RunContext(context.Background(), fn)
}

// RunContext is Run bound to a context: when ctx is canceled or its
// deadline expires, the world aborts — every rank's pending communication
// unblocks with an error wrapping mpi.ErrAborted and the context's cause
// (errors.Is against context.Canceled / context.DeadlineExceeded works),
// fn returns on every rank, and RunContext returns with no goroutine left
// behind. Each rank's Comm carries the context binding, so ranks busy
// between calls observe cancellation at their next communication call;
// the watcher below catches them even mid-block.
func (w *World) RunContext(ctx context.Context, fn func(mpi.Comm) error) error {
	if !w.running.CompareAndSwap(false, true) {
		return errors.New("engine: concurrent Run on one World (Runs must be sequential)")
	}
	defer w.running.Store(false)
	if w.isAborted() {
		return fmt.Errorf("engine: world is spent: %w (boot a new World after an abort)", w.abortError())
	}
	// Re-arm per-run state in place: rank states back to running, rank
	// errors cleared, collective tag-stream counters dropped (the comm
	// contexts they key on are dead after the run; clearing also bounds
	// the per-ctx map footprint Split accumulates). Endpoints need no
	// other reset — a clean previous run proved them drained, and context
	// ids are world-monotonic so stale matching is impossible.
	for r := range w.state {
		w.state[r].Store(0)
	}
	for r := range w.errs {
		w.errs[r] = nil
	}
	for _, ep := range w.eps {
		ep.resetStreams()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	worldCtx := w.ctxSeq.Add(1)
	cancel := cancelSignal{}
	if ctx.Done() != nil {
		cancel = cancelSignal{
			done:  ctx.Done(),
			cause: func() error { return context.Cause(ctx) },
		}
		// The watcher turns cancellation into a world abort even while
		// every rank is blocked; it exits with the run.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				w.abort(fmt.Errorf("engine: run canceled: %w", context.Cause(ctx)))
			case <-w.aborted:
			case <-stop:
			}
		}()
	}

	body := func(rank int) {
		defer w.state[rank].Store(2)
		if !w.hosted[rank] {
			// The rank's body runs in a peer process; its traffic reaches
			// us through the transport, not through fn.
			return
		}
		defer func() {
			if rec := recover(); rec != nil {
				w.errs[rank] = fmt.Errorf("engine: rank %d panicked: %v\n%s", rank, rec, debug.Stack())
				w.abort(w.errs[rank])
			}
		}()
		// Per-rank communicators are pre-allocated at boot and rewritten
		// per run (a Comm is documented as valid only during the call).
		c := &w.comms[rank]
		*c = comm{w: w, ctx: worldCtx, members: w.members, rank: rank, topo: w.topo, cancel: cancel}
		if err := fn(c); err != nil {
			w.errs[rank] = fmt.Errorf("engine: rank %d: %w", rank, err)
			w.abort(w.errs[rank])
		}
	}

	watchdogDone := make(chan struct{})
	var watchdogWG sync.WaitGroup
	watchdogWG.Add(1)
	go func() {
		defer watchdogWG.Done()
		w.watchdog(watchdogDone)
	}()

	w.launch(body)
	close(watchdogDone)
	watchdogWG.Wait()

	// Report the root cause: a rank's own failure beats cascade aborts.
	var cascade error
	for _, err := range w.errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, mpi.ErrAborted) {
			return err
		}
		if cascade == nil {
			cascade = err
		}
	}
	if err, ok := w.abortErr.Load().(error); ok {
		return err
	}
	if cascade != nil {
		return cascade
	}
	// Strictness: no message may be left unconsumed. Skipped on wired
	// worlds — a peer process that already entered its next run may
	// land messages here between our last receive and this scan, so
	// "drained at run end" is not a well-defined cross-process instant.
	if w.wired {
		return nil
	}
	for rank, ep := range w.eps {
		if n := ep.pendingArrivals() + ep.pendingEdges(); n > 0 {
			return fmt.Errorf("engine: rank %d finished with %d unconsumed messages", rank, n)
		}
		if n := ep.pendingRecvs(); n > 0 {
			return fmt.Errorf("engine: rank %d finished with %d unmatched posted receives", rank, n)
		}
	}
	return nil
}

// watchdog aborts the world on wall-clock timeout or on a detected global
// deadlock: every live rank blocked in a communication call with the
// progress counters' sum frozen for at least w.deadlock.
func (w *World) watchdog(done <-chan struct{}) {
	hard := time.NewTimer(w.timeout)
	defer hard.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()

	var frozenSince time.Time
	lastProgress := int64(-1)
	for {
		select {
		case <-done:
			return
		case <-w.aborted:
			return
		case <-hard.C:
			w.abort(fmt.Errorf("engine: wall-clock timeout after %v%s", w.timeout, w.pendingSummary()))
			return
		case <-tick.C:
			if w.deadlock < 0 {
				continue
			}
			prog := w.progressSum()
			allBlocked := true
			anyBlocked := false
			for r := range w.state {
				switch w.state[r].Load() {
				case 0:
					allBlocked = false
				case 1:
					anyBlocked = true
				}
			}
			if !(allBlocked && anyBlocked) || prog != lastProgress {
				lastProgress = prog
				frozenSince = time.Time{}
				continue
			}
			if frozenSince.IsZero() {
				frozenSince = time.Now()
				continue
			}
			if time.Since(frozenSince) >= w.deadlock {
				w.abort(fmt.Errorf("%w: all live ranks blocked with no progress for %v%s",
					mpi.ErrDeadlock, w.deadlock, w.pendingSummary()))
				return
			}
		}
	}
}

// pendingSummary renders the blocked operations for deadlock diagnostics.
func (w *World) pendingSummary() string {
	s := ""
	for rank, ep := range w.eps {
		s += ep.describePending(rank)
	}
	if s == "" {
		return ""
	}
	return "; pending:" + s
}

// Run is the convenience entry point: np ranks on a single node with
// default options.
func Run(np int, fn func(mpi.Comm) error) error {
	w, err := NewWorld(Options{NP: np})
	if err != nil {
		return err
	}
	return w.Run(fn)
}

// RunWith builds a world with the given options and runs fn.
func RunWith(opts Options, fn func(mpi.Comm) error) error {
	w, err := NewWorld(opts)
	if err != nil {
		return err
	}
	return w.Run(fn)
}
