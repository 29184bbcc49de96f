package collective

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/tune"
)

// Plan is a pre-resolved broadcast: the tuner decision, the registry
// entry it names and (for static algorithms) the calling rank's compiled
// operations, all computed and validated once so repeated executions skip
// selection and emission entirely. It is the engine-side half of the
// facade's persistent handles — and, bound for a single call, it is
// RunDecision: per-call and persistent broadcasts are one
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
	ops  rankOps // the rank's compiled schedule; unused by schedule-less rows

	// cache memoizes the tuner decision across Rebinds keyed on the full
	// environment: double-buffered serving (two buffers, same length)
	// re-resolves for free, while a length change genuinely re-decides.
	cache tune.CachedDecision
}

// planPool holds the Plans per-call broadcasts borrow (RunDecision for
// the whole plan, runStatic for its ops scratch), so in the steady state
// they allocate as little as a kept Plan does.
var planPool = sync.Pool{New: func() any { return new(Plan) }}

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

// resolve decides for a byte count and binds the decision.
func (p *Plan) resolve(c mpi.Comm, n int) error {
	return p.bind(c, n, p.cache.Get(envOf(c, n), p.opts.Decide))
}

// bind validates decision d for an n-byte broadcast from p.root on c —
// the algorithm is registered, the segment size is not negative, the
// capabilities admit the environment — and, for a static algorithm,
// compiles the calling rank's operations: O(own ops), never the other
// ranks' lists. A rejected decision leaves the previous binding intact.
func (p *Plan) bind(c mpi.Comm, n int, d tune.Decision) error {
	if err := checkRoot(c, p.root); err != nil {
		return err
	}
	r := lookup(d.Algorithm)
	if r == nil {
		return fmt.Errorf("collective: unknown algorithm %q (registered: %v)", d.Algorithm, Names())
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
	if r.Ops != nil {
		if err := p.ops.compile(c, r.Ops, p.root, n, d.SegSize); err != nil {
			return err
		}
	}
	p.n, p.dec, p.reg = n, d, r
	return nil
}

// Rebind re-resolves the plan for a new byte count (a new buffer of the
// same length is free: the memoized decision wins an equality check and
// nothing else changes).
func (p *Plan) Rebind(c mpi.Comm, n int) error {
	if n == p.n {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("collective: plan: negative length %d", n)
	}
	return p.resolve(c, n)
}

// SetOptions replaces the selection options and invalidates the
// decision memo — an override must force a fresh decision even for an
// unchanged environment.
func (p *Plan) SetOptions(c mpi.Comm, o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	p.opts = o
	p.cache.Invalidate()
	return p.resolve(c, p.n)
}

// Execute runs the planned broadcast on c. The buffer must have the
// planned length (use Rebind for a different size). A static algorithm
// runs its compiled operations in the executor's loop, allocation-free;
// a schedule-less one runs its registered Run. On success it records an
// operation span when the communicator carries a span ring, so
// persistent Start/Wait rounds and per-call broadcasts appear on one
// timeline — this is the broadcast span-emission site.
func (p *Plan) Execute(c mpi.Comm, buf []byte) error {
	if len(buf) != p.n {
		return fmt.Errorf("collective: plan executed with %d bytes, built for %d (Rebind first)", len(buf), p.n)
	}
	ring, start := spanStart(c)
	var err error
	if p.reg.Ops != nil {
		err = p.ops.run(c, buf, p.reg.Overlap)
	} else {
		err = p.reg.Run(c, buf, p.root, p.dec.SegSize)
	}
	if err != nil {
		return err
	}
	if ring != nil {
		ring.Record(opBcast, p.dec.Algorithm, p.dec.SegSize, p.n, start, time.Since(start))
	}
	return nil
}

// Bytes returns the byte count the plan is currently bound to.
func (p *Plan) Bytes() int { return p.n }

// Root returns the broadcast root the plan was built for.
func (p *Plan) Root() int { return p.root }

// Decision returns the resolved tuner decision.
func (p *Plan) Decision() tune.Decision { return p.dec }
