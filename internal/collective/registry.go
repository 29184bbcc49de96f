package collective

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/tune"
)

// Capabilities are the hard constraints of a registered algorithm — what
// it needs to run correctly, as opposed to when it is fast (the tuner's
// concern).
type Capabilities struct {
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
// unconstrained), the capabilities column of bcast algos.
func (cp Capabilities) Label() string {
	tags := cp.Tags()
	if len(tags) == 0 {
		return "-"
	}
	return "[" + strings.Join(tags, " ") + "]"
}

// Match reports whether the environment satisfies the constraints.
func (cp Capabilities) Match(e tune.Env) bool {
	if cp.Pow2Only && !e.Pow2() {
		return false
	}
	if cp.MultiNodeOnly && !e.MultiNode() {
		return false
	}
	return true
}

// Registration is one broadcast algorithm: a stable name, its capability
// constraints, and its schedule.
//
// There is one row form: the row supplies the per-rank emitter of its
// schedule, and everything else is derived from it. An algorithm whose
// pattern depends only on (ranks, root, bytes, segment) gives the
// emitter itself (Ops); one whose pattern also depends on which ranks
// share a node — the SMP broadcasts — gives the function from the node
// map to its emitter (TopoOps). Either way Schedule generates the whole
// program for the verifier, the simulator and the tuner, and a Plan
// compiles the calling rank's ops from the same emitter, so a row cannot
// describe one algorithm and run another.
type Registration struct {
	// Name is the registry key, one of the tune.* algorithm names.
	Name string
	// Summary is a one-line human description, shown by the CLI tools.
	Summary string
	// Caps are the algorithm's hard constraints.
	Caps Capabilities
	// Ops emits one rank's operations. The segment argument is meaningful
	// only for Capabilities.Segmented algorithms (0 = the algorithm's
	// default). A row supplies Ops or TopoOps, never both.
	Ops sched.Emitter
	// TopoOps returns the emitter for the communicator whose ranks topo
	// places (topo.NP() ranks, numbered as in topo).
	TopoOps func(topo *topology.Map) sched.Emitter
	// Program is Schedule on one node of p ranks, derived at init for
	// Ops rows only (nil on TopoOps rows); it is kept for callers that have
	// no topology at hand. In-tree consumers use Schedule, which serves
	// every row.
	Program func(p, root, n, segSize int) (*sched.Program, error)
}

// emitter returns the row's emitter on topo.
func (r *Registration) emitter(topo *topology.Map) sched.Emitter {
	if r.Ops != nil {
		return r.Ops
	}
	return r.TopoOps(topo)
}

// Schedule generates the row's whole static schedule for an n-byte
// broadcast from root over the ranks topo places, or reports why the row
// cannot run there.
func (r *Registration) Schedule(topo *topology.Map, root, n, segSize int) (*sched.Program, error) {
	if e := tune.EnvOf(n, topo.NP(), topo); !r.Caps.Match(e) {
		return nil, fmt.Errorf("collective: %s has no schedule for %d ranks on %d node(s) %s",
			r.Name, e.Procs, e.NumNodes, r.Caps.Label())
	}
	return sched.Generate(r.Name, r.emitter(topo), topo.NP(), root, n, segSize), nil
}

// registry indexes rows by name. init fills it and nothing writes it
// again, so lookups take no lock.
var registry = make(map[string]*Registration, len(rows))

// init indexes the rows and derives Program for the Ops rows.
func init() {
	for i := range rows {
		r := &rows[i]
		if r.Ops != nil {
			r.Program = func(p, root, n, segSize int) (*sched.Program, error) {
				return r.Schedule(topology.SingleNode(p), root, n, segSize)
			}
		}
		registry[r.Name] = r
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
func lookup(name string) *Registration { return registry[name] }

// find is lookup with the error every caller reports for a bad name.
func find(name string) (*Registration, error) {
	if r := lookup(name); r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("collective: unknown algorithm %q (registered: %v)", name, Names())
}

// LoadTable is tune.LoadTable that also refuses a rule naming no
// registry row, so a mistyped algorithm fails where the table is loaded
// instead of at the first broadcast the rule selects.
func LoadTable(path string) (*tune.Table, error) {
	t, err := tune.LoadTable(path)
	if err != nil {
		return nil, err
	}
	for i, r := range t.Rules {
		if lookup(r.Decision.Algorithm) == nil {
			return nil, fmt.Errorf("collective: table %q rule %d: unknown algorithm %q (registered: %v)",
				t.Name, i, r.Decision.Algorithm, Names())
		}
	}
	return t, nil
}

// Schedule generates the whole static schedule of a decision over the
// ranks topo places — Registration.Schedule by name, and the one
// generator the simulator, the tuner and the tools go through.
func Schedule(d tune.Decision, topo *topology.Map, root, n int) (*sched.Program, error) {
	r, err := find(d.Algorithm)
	if err != nil {
		return nil, err
	}
	return r.Schedule(topo, root, n, d.SegSize)
}

// Names returns every registered algorithm name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Algorithms returns every registration, sorted by name.
func Algorithms() []Registration {
	names := Names()
	out := make([]Registration, len(names))
	for i, name := range names {
		out[i] = *registry[name]
	}
	return out
}

// Candidates adapts the registry to the auto-tuner: every row becomes a
// tune.Candidate whose applicability is its capability predicate.
func Candidates() []tune.Candidate {
	names := Names()
	out := make([]tune.Candidate, len(names))
	for i, name := range names {
		r := registry[name]
		out[i] = tune.Candidate{Name: r.Name, Segmented: r.Caps.Segmented, Applies: r.Caps.Match}
	}
	return out
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
// call, through a nil Calls: the same bind-then-Execute path a
// persistent handle takes, with the rank's ops emitted into a pooled
// Plan instead of a kept one — so the per-call and persistent
// broadcasts cannot drift apart, and both record the same {rank, op,
// algorithm, seg, bytes, start, duration} span when the communicator
// carries a span ring.
func RunDecision(c mpi.Comm, buf []byte, root int, d tune.Decision) error {
	return (*Calls)(nil).run(c, opBcast, nil, d, buf, 0, len(buf), root, OpSum)
}

// rows is the built-in broadcast family, the registry's only rows: a new
// algorithm is one more row here. Each row is its emitter from
// internal/core and nothing else; the two SMP rows are emitters composed
// over the node map.
var rows = []Registration{
	{
		Name:    tune.Binomial,
		Summary: "whole-buffer binomial tree (MPICH short-message)",
		Ops:     core.BinomialOps,
	},
	{
		Name:    tune.ScatterRdb,
		Summary: "binomial scatter + recursive-doubling allgather (MPICH medium-message, pow2 only)",
		Caps:    Capabilities{Pow2Only: true},
		Ops:     core.BcastRdbOps,
	},
	{
		Name:    tune.RingNative,
		Summary: "binomial scatter + enclosed ring allgather (MPI_Bcast_native)",
		Ops:     core.BcastNativeOps,
	},
	{
		Name:    tune.RingOpt,
		Summary: "binomial scatter + non-enclosed ring allgather (the paper's MPI_Bcast_opt)",
		Ops:     core.BcastOptOps,
	},
	{
		Name:    tune.RingSeg,
		Summary: "binomial scatter + segmented enclosed ring allgather (pipelined native)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.BcastNativeSegOps,
	},
	{
		Name:    tune.RingOptSeg,
		Summary: "binomial scatter + segmented non-enclosed ring allgather (pipelined MPI_Bcast_opt)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.BcastOptSegOps,
	},
	{
		Name:    tune.Chain,
		Summary: "segmented pipeline-chain broadcast (extension baseline)",
		Caps:    Capabilities{Segmented: true},
		Ops:     core.ChainOps,
	},
	{
		Name:    tune.SMP,
		Summary: "multi-core aware: intra-node binomial + native inter-node ring between leaders",
		Caps:    Capabilities{MultiNodeOnly: true},
		TopoOps: core.SMPNativeOps,
	},
	{
		Name:    tune.SMPOpt,
		Summary: "multi-core aware: intra-node binomial + tuned inter-node ring between leaders",
		Caps:    Capabilities{MultiNodeOnly: true},
		TopoOps: core.SMPOptOps,
	},
}
