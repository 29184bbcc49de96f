package collective

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/tune"
)

// Capabilities are the hard constraints of a registered algorithm — what
// it needs to run correctly, as opposed to when it is fast (the tuner's
// concern).
type Capabilities struct {
	// MinProcs is the smallest communicator the algorithm accepts
	// (0 = no minimum).
	MinProcs int
	// Pow2Only restricts the algorithm to power-of-two communicators.
	Pow2Only bool
	// MultiNodeOnly restricts the algorithm to placements spanning more
	// than one node (the SMP-aware broadcasts degenerate to a plain
	// binomial tree on one node, so selecting them there is meaningless).
	MultiNodeOnly bool
	// Segmented marks algorithms that take a segment-size parameter.
	Segmented bool
}

// Tags renders the constraints as short flag labels for CLI listings
// (e.g. "pow2-only", "segmented"); an unconstrained algorithm yields nil.
func (cp Capabilities) Tags() []string {
	var tags []string
	if cp.MinProcs > 0 {
		tags = append(tags, fmt.Sprintf("min-procs=%d", cp.MinProcs))
	}
	if cp.Pow2Only {
		tags = append(tags, "pow2-only")
	}
	if cp.MultiNodeOnly {
		tags = append(tags, "multi-node-only")
	}
	if cp.Segmented {
		tags = append(tags, "segmented")
	}
	return tags
}

// Label renders the flags as one bracketed CLI column ("-" when
// unconstrained); bcastbench -list and bcastsim -candidates list share
// it so their listings stay format-identical.
func (cp Capabilities) Label() string {
	tags := cp.Tags()
	if len(tags) == 0 {
		return "-"
	}
	return "[" + strings.Join(tags, " ") + "]"
}

// Match reports whether the environment satisfies the constraints.
func (cp Capabilities) Match(e tune.Env) bool {
	if cp.MinProcs > 0 && e.Procs < cp.MinProcs {
		return false
	}
	if cp.Pow2Only && !e.Pow2() {
		return false
	}
	if cp.MultiNodeOnly && !e.MultiNode() {
		return false
	}
	return true
}

// Registration is one pluggable broadcast algorithm: a stable name, its
// capability constraints, and the algorithm itself.
//
// A static algorithm — one whose communication pattern depends only on
// (ranks, root, bytes, segment) — supplies exactly one function, Ops, the
// per-rank emitter of its schedule. Register derives the other two from
// it: Program is sched.Generate over Ops (for the verifier, the simulator
// and the tuner) and Run is the executor over Ops, so the row cannot
// describe one algorithm and run another. An algorithm whose pattern
// depends on runtime communicator state (the Split-based SMP broadcasts)
// supplies Run instead and has no Program.
type Registration struct {
	// Name is the registry key (one of the tune.* algorithm names for the
	// built-ins; extensions pick fresh names).
	Name string
	// Summary is a one-line human description, shown by the CLI tools.
	Summary string
	// Caps are the algorithm's hard constraints.
	Caps Capabilities
	// Ops emits one rank's operations; nil for schedule-less algorithms.
	// The segment argument is meaningful only for Capabilities.Segmented
	// algorithms (0 = the algorithm's default).
	Ops sched.Emitter
	// Overlap selects the executor's overlap mode for Ops: within one
	// ring step every receive is pre-posted and every send started before
	// any is awaited (see rankOps.exec for when that is sound). It is a
	// fixed property of the row — the "-nb" rows are their blocking rows'
	// Ops with Overlap set — never a per-call choice.
	Overlap bool
	// Run executes the broadcast. Derived for rows with Ops; supplied by
	// schedule-less rows.
	Run func(c mpi.Comm, buf []byte, root, segSize int) error
	// Program generates the whole static schedule. Derived for rows with
	// Ops; nil for schedule-less rows.
	Program func(p, root, n, segSize int) (*sched.Program, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Registration{} // rows are immutable once registered
)

// Register adds an algorithm to the registry. Names must be unique and
// non-empty, and a row supplies either Ops or Run, not both.
func Register(r Registration) error {
	if r.Name == "" {
		return fmt.Errorf("collective: register: empty name")
	}
	switch {
	case r.Ops == nil && r.Run == nil:
		return fmt.Errorf("collective: register %q: neither Ops nor Run", r.Name)
	case r.Ops == nil && r.Overlap:
		return fmt.Errorf("collective: register %q: Overlap needs Ops", r.Name)
	case r.Ops != nil && (r.Run != nil || r.Program != nil):
		return fmt.Errorf("collective: register %q: Run and Program are derived from Ops; supply Ops alone", r.Name)
	case r.Ops != nil:
		ops, overlap, name, caps := r.Ops, r.Overlap, r.Name, r.Caps
		r.Run = func(c mpi.Comm, buf []byte, root, segSize int) error {
			return runStatic(c, buf, root, segSize, ops, overlap)
		}
		r.Program = func(p, root, n, segSize int) (*sched.Program, error) {
			if p < caps.MinProcs || (caps.Pow2Only && !core.IsPow2(p)) {
				return nil, fmt.Errorf("collective: %s has no schedule for %d ranks %s", name, p, caps.Label())
			}
			return sched.Generate(name, ops, p, root, n, segSize), nil
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		return fmt.Errorf("collective: register %q: duplicate name", r.Name)
	}
	registry[r.Name] = &r
	return nil
}

// MustRegister is Register that panics on error; the built-in algorithms
// use it at init time.
func MustRegister(r Registration) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	if r := lookup(name); r != nil {
		return *r, true
	}
	return Registration{}, false
}

// lookup returns the registered row itself (nil when unknown), sparing
// the per-broadcast paths a copy of the struct.
func lookup(name string) *Registration {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name]
}

// Names returns every registered algorithm name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Algorithms returns every registration, sorted by name.
func Algorithms() []Registration {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Registration, 0, len(registry))
	for _, r := range registry {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Candidates adapts the registry to the auto-tuner: every algorithm with
// a static schedule becomes a tune.Candidate whose applicability is its
// capability predicate.
func Candidates() []tune.Candidate {
	var out []tune.Candidate
	for _, r := range Algorithms() {
		if r.Program == nil {
			continue
		}
		out = append(out, candidateOf(r))
	}
	return out
}

// AllCandidates adapts the whole registry, including algorithms without
// a static schedule (the SMP broadcasts, whose pattern depends on
// runtime communicator state). Only measurers that execute candidates by
// name (tune.ProgramFree, like the real-engine measurer) can measure the
// schedule-less entries; schedule-replaying measurers skip them.
func AllCandidates() []tune.Candidate {
	var out []tune.Candidate
	for _, r := range Algorithms() {
		out = append(out, candidateOf(r))
	}
	return out
}

func candidateOf(r Registration) tune.Candidate {
	caps := r.Caps
	return tune.Candidate{
		Name:      r.Name,
		Segmented: caps.Segmented,
		Applies:   caps.Match,
		Program:   r.Program,
	}
}

// envOf builds the selection environment of a broadcast call. Node
// count, node occupancy and placement classification are all carried
// through the communicator's topology, so placement-keyed tuning rules
// resolve at run time exactly as they were derived.
func envOf(c mpi.Comm, n int) tune.Env {
	return tune.EnvOf(n, c.Size(), c.Topology())
}

// RunDecision executes a tuner decision through the registry, after
// checking the decided algorithm exists and its capabilities admit the
// environment (a mis-keyed tuning table fails loudly, not with a hang or
// a wrong answer deep inside an algorithm). It is a Plan bound for one
// call: the same bind-then-Execute path a persistent handle takes, with
// the rank's ops emitted into a pooled Plan instead of a kept one — so the
// per-call and persistent broadcasts cannot drift apart, and both record
// the same {rank, op, algorithm, seg, bytes, start, duration} span when
// the communicator carries a span ring.
func RunDecision(c mpi.Comm, buf []byte, root int, d tune.Decision) error {
	p := planPool.Get().(*Plan)
	defer planPool.Put(p)
	p.root = root
	if err := p.bind(c, len(buf), d); err != nil {
		return err
	}
	return p.Execute(c, buf)
}

// BcastWith broadcasts buf from root using the algorithm t selects for
// this communicator and message. It is Broadcast with only the Tuner
// option set; all selection goes through Options.Decide.
func BcastWith(c mpi.Comm, buf []byte, root int, t tune.Tuner) error {
	return Broadcast(c, buf, root, Options{Tuner: t})
}

// The built-in broadcast family. Each static row is its emitter from
// internal/core and nothing else; the two overlap rows are their blocking
// rows' emitters in the executor's overlap mode.
func init() {
	MustRegister(Registration{
		Name:    tune.Binomial,
		Summary: "whole-buffer binomial tree (MPICH short-message)",
		Ops:     core.BinomialOps,
	})
	MustRegister(Registration{
		Name:    tune.ScatterRdb,
		Summary: "binomial scatter + recursive-doubling allgather (MPICH medium-message, pow2 only)",
		Caps:    Capabilities{Pow2Only: true},
		Ops:     core.BcastRdbOps,
	})
	MustRegister(Registration{
		Name:    tune.RingNative,
		Summary: "binomial scatter + enclosed ring allgather (MPI_Bcast_native)",
		Ops:     core.BcastNativeOps,
	})
	MustRegister(Registration{
		Name:    tune.RingOpt,
		Summary: "binomial scatter + non-enclosed ring allgather (the paper's MPI_Bcast_opt)",
		Ops:     core.BcastOptOps,
	})
	MustRegister(Registration{
		Name:    tune.RingSeg,
		Summary: "binomial scatter + segmented enclosed ring allgather (pipelined native)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.BcastNativeSegOps,
	})
	MustRegister(Registration{
		Name:    tune.RingOptSeg,
		Summary: "binomial scatter + segmented non-enclosed ring allgather (pipelined MPI_Bcast_opt)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.BcastOptSegOps,
	})
	MustRegister(Registration{
		Name:    tune.RingSegNB,
		Summary: "segmented enclosed ring with pre-posted nonblocking segment transfers (overlap pipeline)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.BcastNativeSegOps,
		Overlap: true,
	})
	MustRegister(Registration{
		Name:    tune.RingOptSegNB,
		Summary: "segmented non-enclosed ring with pre-posted nonblocking segment transfers (overlap pipeline)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.BcastOptSegOps,
		Overlap: true,
	})
	MustRegister(Registration{
		Name:    tune.Chain,
		Summary: "segmented pipeline-chain broadcast (extension baseline)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.ChainOps,
	})
	MustRegister(Registration{
		Name:    tune.SMP,
		Summary: "multi-core aware: intra-node binomial + native inter-node ring between leaders",
		Caps:    Capabilities{MultiNodeOnly: true},
		Run: func(c mpi.Comm, buf []byte, root, _ int) error {
			return BcastSMP(c, buf, root)
		},
	})
	MustRegister(Registration{
		Name:    tune.SMPOpt,
		Summary: "multi-core aware: intra-node binomial + tuned inter-node ring between leaders",
		Caps:    Capabilities{MultiNodeOnly: true},
		Run: func(c mpi.Comm, buf []byte, root, _ int) error {
			return BcastSMPOpt(c, buf, root)
		},
	})
}
