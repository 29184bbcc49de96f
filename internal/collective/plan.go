package collective

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/tune"
)

// Plan is one rank's bound collective: its operation, the window of the
// program's buffer the rank holds, and its compiled operations — for a
// broadcast also the tuner decision and the registry entry it names —
// all computed and validated once so repeated executions skip selection
// and emission entirely. Every collective runs as one: bound for a single
// call, or held by a Calls for the calls that repeat its (op, bytes,
// root, decision), and, as a broadcast, kept by the facade's persistent
// handles. Per-call and persistent collectives are one
// bind-validate-run-span path.
//
// A Plan belongs to one rank of one communicator group (every rank of
// a persistent collective builds its own), is not safe for concurrent
// use, and is pinned to the (byte count, root) it was built with until
// Rebind.
type Plan struct {
	op   string // the span name (span.go)
	n    int    // the program's buffer bytes
	lo   int    // the rank's window of it starts here...
	size int    // ...and holds this many bytes: the length Execute checks
	root int
	opts Options
	dec  tune.Decision
	reg  *Registration
	topo *topology.Map // the communicator's node map at the last broadcast bind
	emit sched.Emitter // the bound emitter: reg's on topo, or the op's own
	ops  rankOps       // the rank's compiled schedule
}

// planPool holds the Plans per-call collectives borrow (for one call, or
// for as long as a Calls holds them), so in the steady state they
// allocate as little as a kept Plan does.
var planPool = sync.Pool{New: func() any { return new(Plan) }}

// callsCap is how many bound Plans a Calls holds: a per-call program
// repeats a handful of (op, size, root) shapes, not dozens.
const callsCap = 8

// Calls is one rank's cache of the Plans its per-call collectives on one
// communicator have bound, keyed by what a bound Plan already stores:
// operation, byte count, root and decision. Broadcast decides every call,
// as the package-level Broadcast does, so a tuner still sees every call;
// only a shape it has not bound yet pays the registry lookup, the emit
// and manage. Its Plans come from planPool and go back to it, the least
// recently used one when a callsCap+1st key arrives and all of them at
// Release.
//
// A broadcast's Plan binds its edges (bindEdges) when it enters the
// cache, as a kept Plan does, and releases them when it leaves, so a
// repeated tiny broadcast moves its messages through cells of its own
// instead of the engine's queues. The two ends of an edge meet by the
// order in which their ranks bind on the communicator, so every rank
// must miss and evict in the same order: the ranks' caches must hold
// the same keys, which MPI's rule that every rank calls the collectives
// of a communicator in the same order, with the same (length, root) and
// a decision they agree on, gives. A rank that runs a broadcast through
// a Calls while its peers run it through a nil one, or through another
// Calls, binds edges its peers do not: its messages go into cells no
// receive reads, and the run ends in the deadlock watchdog's report.
// Other collectives bind nothing.
//
// A nil *Calls caches nothing and binds no edges: each call through it
// binds a Plan for that call only, which is what the package-level
// Broadcast, RunDecision and Barrier do. A Calls belongs to one rank of
// one communicator and is not safe for concurrent use. The zero value
// is empty and ready.
type Calls struct {
	plans [callsCap]*Plan // most recently used first
	n     int
}

// run runs the n-byte collective op from root on c over buf, which holds
// bytes [lo, lo+len(buf)) of the program's buffer, red combining its Fold
// receives. It is the one place a per-call Plan is bound: k's Plan for
// (op, n, root, d) runs again, and on a miss a pooled Plan binds (e, or
// for a broadcast d's registry row; see bind), with bind's errors, and k
// keeps it once the bind succeeded, a broadcast's with its edges bound
// (see Calls). A nil k binds for this call only.
func (k *Calls) run(c mpi.Comm, op string, e sched.Emitter, d tune.Decision, buf []byte, lo, n, root int, red Op) error {
	var p *Plan
	i := 0
	for ; k != nil && i < k.n; i++ {
		if q := k.plans[i]; q.op == op && q.n == n && q.root == root && q.dec == d {
			p = q
			break
		}
	}
	if p == nil {
		p = planPool.Get().(*Plan)
		p.op, p.root, p.lo = op, root, lo
		if err := p.bind(c, e, d, n, len(buf)); err != nil {
			planPool.Put(p)
			return err
		}
		switch {
		case k == nil:
			defer planPool.Put(p)
		case k.n == callsCap:
			i--
			k.plans[i].ops.releaseEdges()
			planPool.Put(k.plans[i])
		default:
			k.n++
		}
		if k != nil && op == opBcast {
			p.ops.bindEdges(c)
		}
	}
	if k != nil {
		copy(k.plans[1:i+1], k.plans[:i])
		k.plans[0] = p
	}
	p.ops.red = red
	return p.Execute(c, buf)
}

// Broadcast broadcasts buf from root with the algorithm o selects for
// this communicator and message, deciding on every call.
func (k *Calls) Broadcast(c mpi.Comm, buf []byte, root int, o Options) error {
	return k.run(c, opBcast, nil, o.Decide(envOf(c, len(buf))), buf, 0, len(buf), root, OpSum)
}

// Len reports how many bound Plans the cache holds.
func (k *Calls) Len() int { return k.n }

// Release releases every held Plan's edges, returns the Plans to
// planPool and empties the cache.
func (k *Calls) Release() {
	for _, p := range k.plans[:k.n] {
		p.ops.releaseEdges()
		planPool.Put(p)
	}
	*k = Calls{}
}

// NewPlan resolves o against (c, n, root) and validates the outcome the
// same way RunDecision would, so an Init-time Plan failure is exactly
// the failure the equivalent Broadcast call would have produced — just
// earlier, before anything is in flight.
func NewPlan(c mpi.Comm, n, root int, o Options) (*Plan, error) {
	if n < 0 {
		return nil, fmt.Errorf("collective: plan: negative length %d", n)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{op: opBcast, root: root, opts: o}
	if err := p.resolve(c, n); err != nil {
		return nil, err
	}
	return p, nil
}

// resolve decides for a byte count, binds the decision and binds the
// kept Plan's edges (see bindEdges). A per-call Plan binds its edges in
// Calls.run, and only while a Calls holds it.
func (p *Plan) resolve(c mpi.Comm, n int) error {
	if err := p.bind(c, nil, p.opts.Decide(envOf(c, n)), n, n); err != nil {
		return err
	}
	p.ops.bindEdges(c)
	return nil
}

// bind compiles the calling rank's operations in the n-byte collective
// p.op from p.root into its size-byte window of the program's buffer at
// p.lo. Every op but a broadcast passes its fixed emitter e and the zero
// decision d. A broadcast passes a nil e: its emitter is the row d names,
// on c's topology, once d is checked — the algorithm is registered, the
// segment size is not negative, the capabilities admit the environment
// (an elided row also emits each of its destinations' lists once). A
// rejected decision leaves the previous binding intact.
func (p *Plan) bind(c mpi.Comm, e sched.Emitter, d tune.Decision, n, size int) error {
	if err := checkRoot(c, p.root); err != nil {
		return err
	}
	var r *Registration
	var topo *topology.Map
	if e == nil {
		var err error
		if r, err = find(d.Algorithm); err != nil {
			return err
		}
		if d.SegSize < 0 {
			// The segmented algorithms treat any non-positive segment as
			// their default; a negative one is a caller bug that must not
			// silently run with a different pipeline than asked for.
			return fmt.Errorf("collective: negative segment size %d for %q", d.SegSize, d.Algorithm)
		}
		if env := envOf(c, n); !r.Caps.Match(env) {
			return fmt.Errorf("collective: algorithm %q cannot run with %d bytes on %d ranks over %d node(s)",
				d.Algorithm, env.Bytes, env.Procs, env.NumNodes)
		}
		// A pooled Plan meets the same (row, topology) call after call:
		// keep the emitter a TopoOps row built for it instead of building
		// it anew.
		topo = c.Topology()
		if e = p.emit; r != p.reg || topo != p.topo {
			e = r.emitter(topo)
		}
	}
	if err := p.ops.compile(c, e, p.root, n, d.SegSize, p.lo, size); err != nil {
		return err
	}
	p.n, p.size, p.dec, p.reg, p.topo, p.emit = n, size, d, r, topo, e
	return nil
}

// Rebind re-resolves the plan for a new byte count (a new buffer of the
// same length is free: the bound decision and ops stay as they are).
func (p *Plan) Rebind(c mpi.Comm, n int) error {
	if n == p.n {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("collective: plan: negative length %d", n)
	}
	return p.resolve(c, n)
}

// Release gives back the edges a kept Plan bound, so that the engine can
// drop them before the Run ends. The Plan must not run again.
func (p *Plan) Release() { p.ops.releaseEdges() }

// Execute runs the bound collective on c over buf, the rank's window of
// the program's buffer, which must have the bound length (a kept
// broadcast Rebinds for another). The compiled operations run in the
// executor's loop, allocation-free, behind the per-operation tag stream
// every collective draws (a one-rank communicator sends nothing and
// draws none). On success it records the op's span when the communicator
// carries a span ring — the package's one emission site, so persistent
// rounds and every per-call collective appear on one timeline.
func (p *Plan) Execute(c mpi.Comm, buf []byte) error {
	if len(buf) != p.size {
		return fmt.Errorf("collective: plan executed with %d bytes, built for %d (Rebind first)", len(buf), p.size)
	}
	ring, start := spanStart(c)
	if c.Size() > 1 {
		c.NextTagStream()
	}
	var mv mpi.Binding
	if s := &p.ops; s.bound != nil && s.bound.Engage(c) {
		mv = s.bound
		defer mv.Disengage()
	}
	if err := p.ops.exec(c, mv, buf); err != nil {
		return fmt.Errorf("collective: exec: %w", err)
	}
	if ring != nil {
		ring.Record(p.op, p.dec.Algorithm, p.dec.SegSize, p.n, start, time.Since(start))
	}
	return nil
}

// Decision returns the resolved tuner decision.
func (p *Plan) Decision() tune.Decision { return p.dec }
