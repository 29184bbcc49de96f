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

// Plan is a pre-resolved broadcast: the tuner decision, the registry
// entry it names and the calling rank's compiled operations, all computed
// and validated once so repeated executions skip selection and emission
// entirely. It is the engine-side half of the
// facade's persistent handles — and, bound for a single call, it is
// RunDecision, and, held for the calls that repeat its (bytes, root,
// decision), a Calls entry: per-call and persistent broadcasts are one
// bind-validate-run-span path.
//
// A Plan belongs to one rank of one communicator group (every rank of
// a persistent collective builds its own), is not safe for concurrent
// use, and is pinned to the (byte count, root) it was built with until
// Rebind.
type Plan struct {
	n    int
	root int
	opts Options
	dec  tune.Decision
	reg  *Registration
	topo *topology.Map // the communicator's node map at the last bind
	emit sched.Emitter // reg's emitter on topo
	ops  rankOps       // the rank's compiled schedule
}

// planPool holds the Plans per-call broadcasts borrow (RunDecision for
// one call, a Calls until it evicts or releases them, runStatic for the
// ops scratch), so in the steady state they allocate as little as a kept
// Plan does.
var planPool = sync.Pool{New: func() any { return new(Plan) }}

// callsCap is how many bound Plans a Calls holds: a per-call program
// repeats a handful of (size, root) shapes, not dozens.
const callsCap = 8

// Calls is one rank's cache of the Plans its per-call broadcasts on one
// communicator have bound, keyed by what a bound Plan already stores:
// byte count, root and decision. Broadcast decides every call, as the
// package-level Broadcast does, so a tuner still sees every call; only a
// decision it has not bound yet pays the registry lookup, the emit and
// manage. Its Plans come from planPool and go back to it, the least
// recently used one when a callsCap+1st key arrives and all of them at
// Release. They are never kept, so they bind no edges, and what a rank
// holds is its own business: ranks need not agree on evictions.
//
// A Calls belongs to one rank of one communicator and is not safe for
// concurrent use. The zero value is empty and ready.
type Calls struct {
	plans [callsCap]*Plan // most recently used first
	n     int
}

// Broadcast is Broadcast through the cache: on a miss it binds a pooled
// Plan as RunDecision does, with the same errors, and caches it only
// once the bind succeeded.
func (k *Calls) Broadcast(c mpi.Comm, buf []byte, root int, o Options) error {
	n := len(buf)
	d := o.Decide(envOf(c, n))
	i := 0
	for ; i < k.n; i++ {
		if p := k.plans[i]; p.n == n && p.root == root && p.dec == d {
			break
		}
	}
	var p *Plan
	if i < k.n {
		p = k.plans[i]
	} else {
		p = planPool.Get().(*Plan)
		p.root = root
		if err := p.bind(c, n, d); err != nil {
			planPool.Put(p)
			return err
		}
		if k.n == callsCap {
			i--
			planPool.Put(k.plans[i])
		} else {
			k.n++
		}
	}
	copy(k.plans[1:i+1], k.plans[:i])
	k.plans[0] = p
	return p.Execute(c, buf)
}

// Len reports how many bound Plans the cache holds.
func (k *Calls) Len() int { return k.n }

// Release returns every held Plan to planPool and empties the cache.
func (k *Calls) Release() {
	for _, p := range k.plans[:k.n] {
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
	p := &Plan{root: root, opts: o}
	if err := p.resolve(c, n); err != nil {
		return nil, err
	}
	return p, nil
}

// resolve decides for a byte count, binds the decision and binds the
// kept Plan's edges (see bindEdges); the per-call Plans of planPool bind
// decisions only, never edges.
func (p *Plan) resolve(c mpi.Comm, n int) error {
	if err := p.bind(c, n, p.opts.Decide(envOf(c, n))); err != nil {
		return err
	}
	p.ops.bindEdges(c)
	return nil
}

// bind validates decision d for an n-byte broadcast from p.root on c —
// the algorithm is registered, the segment size is not negative, the
// capabilities admit the environment — and compiles the calling rank's
// operations from the row's emitter on c's topology (an elided row also
// emits each of its destinations' lists once). A rejected decision leaves
// the previous binding intact.
func (p *Plan) bind(c mpi.Comm, n int, d tune.Decision) error {
	if err := checkRoot(c, p.root); err != nil {
		return err
	}
	r, err := find(d.Algorithm)
	if err != nil {
		return err
	}
	if d.SegSize < 0 {
		// The segmented algorithms treat any non-positive segment as
		// their default; a negative one is a caller bug that must not
		// silently run with a different pipeline than asked for.
		return fmt.Errorf("collective: negative segment size %d for %q", d.SegSize, d.Algorithm)
	}
	if e := envOf(c, n); !r.Caps.Match(e) {
		return fmt.Errorf("collective: algorithm %q cannot run with %d bytes on %d ranks over %d node(s)",
			d.Algorithm, e.Bytes, e.Procs, e.NumNodes)
	}
	// A pooled Plan meets the same (row, topology) call after call: keep
	// the emitter a TopoOps row built for it instead of building it anew.
	e, topo := p.emit, c.Topology()
	if r != p.reg || topo != p.topo {
		e = r.emitter(topo)
	}
	if err := p.ops.compile(c, e, p.root, n, d.SegSize, 0, n); err != nil {
		return err
	}
	p.n, p.dec, p.reg, p.topo, p.emit = n, d, r, topo, e
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

// Execute runs the planned broadcast on c. The buffer must have the
// planned length (use Rebind for a different size). The compiled
// operations run in the executor's loop, allocation-free. On success it
// records an operation span when the communicator carries a span ring, so
// persistent Start/Wait rounds and per-call broadcasts appear on one
// timeline — this is the broadcast span-emission site.
func (p *Plan) Execute(c mpi.Comm, buf []byte) error {
	if len(buf) != p.n {
		return fmt.Errorf("collective: plan executed with %d bytes, built for %d (Rebind first)", len(buf), p.n)
	}
	ring, start := spanStart(c)
	if err := p.ops.run(c, buf); err != nil {
		return err
	}
	if ring != nil {
		ring.Record(opBcast, p.dec.Algorithm, p.dec.SegSize, p.n, start, time.Since(start))
	}
	return nil
}

// Decision returns the resolved tuner decision.
func (p *Plan) Decision() tune.Decision { return p.dec }
