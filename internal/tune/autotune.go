package tune

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/topology"
)

// Candidate is one algorithm the auto-tuner may select: a registry name
// and an applicability predicate. The collective registry adapts every
// row to this shape (collective.Candidates).
type Candidate struct {
	// Name is the registry name recorded in emitted decisions.
	Name string
	// SegSize is the segment-size parameter for segmented algorithms
	// (0 for algorithms without one); it is copied into the decision.
	SegSize int
	// Segmented marks candidates that accept a segment-size parameter;
	// sweep-based tuning expands these into one candidate per swept
	// segment size instead of measuring only the algorithm's default.
	Segmented bool
	// Applies reports whether the algorithm can run in e (nil = always).
	Applies func(e Env) bool
}

// Measurer estimates the steady-state per-iteration time of an n-byte
// broadcast that runs decision d over the ranks topo places. Describe
// names the measurement substrate and its protocol for a table's
// provenance.
type Measurer interface {
	Measure(d Decision, topo *topology.Map, n int) (float64, error)
	Describe() string
}

// Placement names one rank-to-node mapping shape for placement sweeps.
type Placement struct {
	// Kind is one of the topology.Kind* names; KindSingle ignores
	// CoresPerNode.
	Kind string
	// CoresPerNode is the node capacity for blocked and round-robin maps.
	CoresPerNode int
}

// Map realizes the placement for np ranks. The zero Placement puts every
// rank on one node, like KindSingle.
func (pl Placement) Map(np int) (*topology.Map, error) {
	switch pl.Kind {
	case topology.KindSingle, "":
		return topology.SingleNode(np), nil
	case topology.KindBlocked, topology.KindRoundRobin:
		if pl.CoresPerNode <= 0 {
			return nil, fmt.Errorf("tune: placement %q needs cores per node", pl.Kind)
		}
		if pl.Kind == topology.KindBlocked {
			return topology.Blocked(np, pl.CoresPerNode), nil
		}
		return topology.RoundRobin(np, pl.CoresPerNode), nil
	default:
		return nil, fmt.Errorf("tune: unknown placement kind %q", pl.Kind)
	}
}

// String renders the placement in the CLI syntax ParsePlacement accepts.
func (pl Placement) String() string {
	switch {
	case pl.Kind == "" || pl.Kind == topology.KindSingle:
		return topology.KindSingle
	case pl.CoresPerNode <= 0:
		return pl.Kind
	}
	return fmt.Sprintf("%s:%d", pl.Kind, pl.CoresPerNode)
}

// ParsePlacement parses "single", "blocked:24" or "round-robin:24"
// ("roundrobin" is accepted as an alias).
func ParsePlacement(s string) (Placement, error) {
	kind, coresStr, has := strings.Cut(strings.TrimSpace(s), ":")
	switch kind {
	case "roundrobin", "rr":
		kind = topology.KindRoundRobin
	}
	pl := Placement{Kind: kind}
	if has {
		cores, err := strconv.Atoi(coresStr)
		if err != nil || cores < 1 {
			return Placement{}, fmt.Errorf("tune: bad cores in placement %q", s)
		}
		pl.CoresPerNode = cores
	}
	switch pl.Kind {
	case topology.KindSingle:
		if pl.CoresPerNode != 0 {
			return Placement{}, fmt.Errorf("tune: placement %q takes no cores", s)
		}
	case topology.KindBlocked, topology.KindRoundRobin:
		if pl.CoresPerNode == 0 {
			return Placement{}, fmt.Errorf("tune: placement %q needs cores, e.g. %q", s, s+":24")
		}
	default:
		return Placement{}, fmt.Errorf("tune: unknown placement %q (single|blocked:N|round-robin:N)", s)
	}
	return pl, nil
}

// Winner is one auto-tuned grid point: the fastest applicable candidate,
// its measured per-iteration time, and the environment it was measured in
// (placement classification included).
type Winner struct {
	Procs, Bytes int
	Env          Env
	Decision     Decision
	Seconds      float64
}

// tuneGrid measures every applicable candidate at every (procs x sizes)
// point under placement pl and returns the per-point winners. Each
// process count's topology is built once: the measurements run on it and
// the applicability predicates see its environment. procs and sizes must
// be sorted.
func tuneGrid(cands []Candidate, m Measurer, pl Placement, procs, sizes []int) ([]Winner, error) {
	var winners []Winner
	for _, p := range procs {
		topo, err := pl.Map(p)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			e := EnvOf(n, p, topo)
			best := Winner{Procs: p, Bytes: n, Env: e, Seconds: -1}
			for _, c := range cands {
				if c.Applies != nil && !c.Applies(e) {
					continue
				}
				d := Decision{Algorithm: c.Name, SegSize: c.SegSize}
				dt, err := m.Measure(d, topo, n)
				if err != nil {
					return nil, err
				}
				if best.Seconds < 0 || dt < best.Seconds {
					best.Seconds, best.Decision = dt, d
				}
			}
			if best.Seconds < 0 {
				return nil, fmt.Errorf("tune: no measurable candidate at (p=%d, n=%d)", p, n)
			}
			winners = append(winners, best)
		}
	}
	return winners, nil
}

// crossoverRules derives first-match rules from grid winners: per process
// count, adjacent sizes won by the same decision merge into one size-band
// rule. The first band of each p extends down to 0 bytes and the last to
// infinity, so the rules are total for tuned process counts. constrain
// keys every rule on the placement its winners were measured under.
func crossoverRules(winners []Winner, procs []int, constrain bool) []Rule {
	var rules []Rule
	for _, p := range procs {
		var run []Winner
		for _, w := range winners {
			if w.Procs == p {
				run = append(run, w)
			}
		}
		for i := 0; i < len(run); {
			j := i
			for j+1 < len(run) && run[j+1].Decision == run[i].Decision {
				j++
			}
			r := Rule{MinProcs: p, MaxProcs: p, Decision: run[i].Decision}
			if i > 0 {
				r.MinBytes = run[i].Bytes
			}
			if j+1 < len(run) {
				r.MaxBytes = run[j+1].Bytes
			}
			if constrain {
				r.Placement, r.CoresPerNode = run[i].Env.Placement, run[i].Env.CoresPerNode
			}
			rules = append(rules, r)
			i = j + 1
		}
	}
	return rules
}

// SweepConfig parameterizes AutoTune.
type SweepConfig struct {
	// Procs and Sizes span the measurement grid (both required).
	Procs, Sizes []int
	// SegSizes are the segment sizes swept for every Segmented candidate,
	// replacing the algorithm's single default. Empty = defaults only.
	SegSizes []int
	// Placements are the rank placements swept; one rule group is emitted
	// per placement, keyed on the realized topology's classification.
	// Empty = Place alone, unconstrained rules.
	Placements []Placement
	// Place is the placement an unswept grid is measured under (zero =
	// one node).
	Place Placement
}

// AutoTune measures every applicable candidate at every (procs x sizes)
// grid point and derives a first-match rule Table from the winners,
// reproducing the crossover-point tables of the measurement-driven tuning
// literature; the winners themselves are returned alongside for
// reporting, and the table's description ends with m.Describe(). Candidates whose Applies predicate rejects the measurement
// environment are skipped at that point; a grid point where no candidate
// can be measured is an error.
//
// The grid extends along the two axes the paper's Section V crossovers
// are known to shift with: segment size and process placement. Every
// Segmented candidate is expanded into one candidate per cfg.SegSizes
// entry, and the whole grid is re-measured under every cfg.Placements
// entry. The emitted table concatenates one
// rule group per placement, each rule constrained to the placement
// classification and node occupancy actually realized at its process
// count (a blocked sweep that collapses onto one node at small p emits
// single-node rules there, matching what a runtime broadcast over that
// map would look up). Without placements the grid is measured once, under
// cfg.Place, and the rules are unconstrained.
func AutoTune(cands []Candidate, m Measurer, cfg SweepConfig) (*Table, []Winner, error) {
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("tune: no candidates")
	}
	if len(cfg.Procs) == 0 || len(cfg.Sizes) == 0 {
		return nil, nil, fmt.Errorf("tune: empty grid (%d procs, %d sizes)", len(cfg.Procs), len(cfg.Sizes))
	}
	if m == nil {
		return nil, nil, fmt.Errorf("tune: nil measurer")
	}
	procs := sortedCopy(cfg.Procs)
	sizes := sortedCopy(cfg.Sizes)
	expanded := expandSegments(cands, cfg.SegSizes)

	placements := cfg.Placements
	constrain := len(placements) > 0
	if !constrain {
		placements = []Placement{cfg.Place}
	}

	t := &Table{Name: "auto-tuned"}
	var all []Winner
	for _, pl := range placements {
		winners, err := tuneGrid(expanded, m, pl, procs, sizes)
		if err != nil {
			return nil, nil, fmt.Errorf("tune: placement %s: %w", pl, err)
		}
		all = append(all, winners...)
		t.Rules = appendNewRules(t.Rules, crossoverRules(winners, procs, constrain))
	}
	t.Description = fmt.Sprintf("auto-tuned over %d procs x %d sizes x placements %v (%d segment sizes) %s",
		len(procs), len(sizes), placements, len(cfg.SegSizes), m.Describe())
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	return t, all, nil
}

// expandSegments replaces every Segmented candidate with one copy per
// swept segment size; non-segmented candidates pass through unchanged.
func expandSegments(cands []Candidate, segSizes []int) []Candidate {
	if len(segSizes) == 0 {
		return cands
	}
	var out []Candidate
	for _, c := range cands {
		if !c.Segmented {
			out = append(out, c)
			continue
		}
		for _, seg := range segSizes {
			cc := c
			cc.SegSize = seg
			out = append(out, cc)
		}
	}
	return out
}

// appendNewRules appends rules, dropping exact duplicates of already
// emitted rules (placements that collapse onto the same realized topology
// at small process counts produce identical groups there).
func appendNewRules(rules, add []Rule) []Rule {
	for _, r := range add {
		if !slices.Contains(rules, r) {
			rules = append(rules, r)
		}
	}
	return rules
}

func sortedCopy(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}
