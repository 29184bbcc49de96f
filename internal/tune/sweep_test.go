package tune

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// placeMeasurer scores decisions from a fixed cost function that also
// sees the placement kind of the topology measured on, so sweep tests can
// force different winners per placement and per segment size.
type placeMeasurer func(d Decision, kind string, p, n int) float64

func (m placeMeasurer) Measure(d Decision, topo *topology.Map, n int) (float64, error) {
	return m(d, topo.Kind(), topo.NP(), n), nil
}

func (placeMeasurer) Describe() string { return "on a fake" }

func TestParsePlacement(t *testing.T) {
	good := []struct {
		in   string
		want Placement
	}{
		{"single", Placement{Kind: topology.KindSingle}},
		{"blocked:24", Placement{Kind: topology.KindBlocked, CoresPerNode: 24}},
		{"round-robin:8", Placement{Kind: topology.KindRoundRobin, CoresPerNode: 8}},
		{"roundrobin:8", Placement{Kind: topology.KindRoundRobin, CoresPerNode: 8}},
		{"rr:4", Placement{Kind: topology.KindRoundRobin, CoresPerNode: 4}},
		{" blocked:2 ", Placement{Kind: topology.KindBlocked, CoresPerNode: 2}},
	}
	for _, tc := range good {
		got, err := ParsePlacement(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePlacement(%q) = (%+v, %v) want %+v", tc.in, got, err, tc.want)
		}
		// String() round-trips through ParsePlacement.
		back, err := ParsePlacement(got.String())
		if err != nil || back != got {
			t.Errorf("round trip %q -> %q failed: (%+v, %v)", tc.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"", "blocked", "round-robin", "single:4", "blocked:0", "blocked:x", "mesh:4"} {
		if _, err := ParsePlacement(bad); err == nil {
			t.Errorf("ParsePlacement(%q) must fail", bad)
		}
	}
}

func TestPlacementMap(t *testing.T) {
	if m, err := (Placement{Kind: topology.KindSingle}).Map(8); err != nil || m.NumNodes() != 1 {
		t.Errorf("single: (%v, %v)", m, err)
	}
	if m, err := (Placement{Kind: topology.KindBlocked, CoresPerNode: 4}).Map(8); err != nil || m.NumNodes() != 2 {
		t.Errorf("blocked: (%v, %v)", m, err)
	}
	if m, err := (Placement{Kind: topology.KindRoundRobin, CoresPerNode: 4}).Map(8); err != nil || m.Kind() != topology.KindRoundRobin {
		t.Errorf("round-robin: (%v, %v)", m, err)
	}
	if m, err := (Placement{}).Map(8); err != nil || m.NumNodes() != 1 {
		t.Errorf("zero placement: (%v, %v), want a single node", m, err)
	}
	for _, bad := range []Placement{{Kind: "mesh"}, {Kind: topology.KindBlocked}} {
		if _, err := bad.Map(8); err == nil {
			t.Errorf("%+v.Map must fail", bad)
		}
	}
}

// TestAutoTuneSegmentSizes: a segmented candidate is expanded over
// the swept sizes and the best segment size lands in the decision.
func TestAutoTuneSegmentSizes(t *testing.T) {
	cands := []Candidate{
		{Name: "plain"},
		{Name: "seg", Segmented: true},
	}
	m := placeMeasurer(func(d Decision, _ string, p, n int) float64 {
		// seg@4096 is the global winner; other segment sizes and the
		// plain candidate lose.
		if d == (Decision{Algorithm: "seg", SegSize: 4096}) {
			return 1
		}
		return 2
	})
	cfg := SweepConfig{
		Procs:      []int{8},
		Sizes:      []int{1 << 20},
		SegSizes:   []int{1024, 4096, 16384},
		Placements: []Placement{{Kind: topology.KindSingle}},
	}
	table, winners, err := AutoTune(cands, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 1 || winners[0].Decision != (Decision{Algorithm: "seg", SegSize: 4096}) {
		t.Fatalf("winners = %+v", winners)
	}
	e := EnvOf(1<<20, 8, topology.SingleNode(8))
	d, ok := table.Lookup(e)
	if !ok || d.SegSize != 4096 {
		t.Fatalf("Lookup = (%+v, %v) want seg 4096", d, ok)
	}
}

// TestAutoTunePerPlacementGroups: different winners under blocked
// and round-robin placements yield distinct rule groups, each matching
// only its own placement's runtime environment.
func TestAutoTunePerPlacementGroups(t *testing.T) {
	cands := []Candidate{
		{Name: "likes-blocked"},
		{Name: "likes-rr"},
	}
	m := placeMeasurer(func(d Decision, kind string, p, n int) float64 {
		if (kind == topology.KindBlocked) == (d.Algorithm == "likes-blocked") {
			return 1
		}
		return 2
	})
	cfg := SweepConfig{
		Procs: []int{12},
		Sizes: []int{1 << 16},
		Placements: []Placement{
			{Kind: topology.KindBlocked, CoresPerNode: 4},
			{Kind: topology.KindRoundRobin, CoresPerNode: 4},
		},
	}
	table, winners, err := AutoTune(cands, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 2 {
		t.Fatalf("want 2 winners, got %d", len(winners))
	}
	blockedEnv := EnvOf(1<<16, 12, topology.Blocked(12, 4))
	rrEnv := EnvOf(1<<16, 12, topology.RoundRobin(12, 4))
	if d, ok := table.Lookup(blockedEnv); !ok || d.Algorithm != "likes-blocked" {
		t.Errorf("blocked env: (%+v, %v)", d, ok)
	}
	if d, ok := table.Lookup(rrEnv); !ok || d.Algorithm != "likes-rr" {
		t.Errorf("round-robin env: (%+v, %v)", d, ok)
	}
	// Every rule is placement-constrained: an unclassified environment
	// (no placement fields) matches nothing.
	if d, ok := table.Lookup(Env{Bytes: 1 << 16, Procs: 12, NumNodes: 3}); ok {
		t.Errorf("unclassified env matched %+v", d)
	}
}

// TestAutoTuneCollapsedPlacementsDedup: at process counts where
// blocked and round-robin collapse onto one node, both passes realize the
// same single-node environment; the table must not repeat the group.
func TestAutoTuneCollapsedPlacementsDedup(t *testing.T) {
	cands := []Candidate{{Name: "only"}}
	m := placeMeasurer(func(Decision, string, int, int) float64 { return 1 })
	cfg := SweepConfig{
		Procs: []int{4}, // 4 ranks on 24-core nodes: both placements collapse
		Sizes: []int{64},
		Placements: []Placement{
			{Kind: topology.KindBlocked, CoresPerNode: 24},
			{Kind: topology.KindRoundRobin, CoresPerNode: 24},
		},
	}
	table, winners, err := AutoTune(cands, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 2 {
		t.Fatalf("want 2 winners (one per pass), got %d", len(winners))
	}
	if len(table.Rules) != 1 {
		t.Fatalf("collapsed placements must dedup to 1 rule, got %d: %+v", len(table.Rules), table.Rules)
	}
	if r := table.Rules[0]; r.Placement != topology.KindSingle || r.CoresPerNode != 4 {
		t.Fatalf("rule constraints = %+v", r)
	}
}

// TestAutoTunePlacementErrors covers the failure modes of a placement sweep.
func TestAutoTunePlacementErrors(t *testing.T) {
	cands := []Candidate{{Name: "a"}}
	m := placeMeasurer(func(Decision, string, int, int) float64 { return 1 })
	if _, _, err := AutoTune(nil, m, SweepConfig{Procs: []int{4}, Sizes: []int{64}}); err == nil {
		t.Error("no candidates must fail")
	}
	if _, _, err := AutoTune(cands, m, SweepConfig{Sizes: []int{64}}); err == nil {
		t.Error("empty grid must fail")
	}
	if _, _, err := AutoTune(cands, nil, SweepConfig{Procs: []int{4}, Sizes: []int{64}}); err == nil {
		t.Error("nil measurer must fail")
	}
	bad := SweepConfig{Procs: []int{4}, Sizes: []int{64}, Placements: []Placement{{Kind: "mesh"}}}
	if _, _, err := AutoTune(cands, m, bad); err == nil {
		t.Error("bad placement must fail")
	}
	// The placement of an unswept grid is built like a swept one: one
	// that cannot be built fails by name instead of measuring elsewhere.
	noCores := SweepConfig{Procs: []int{4}, Sizes: []int{64}, Place: Placement{Kind: topology.KindBlocked}}
	if _, _, err := AutoTune(cands, m, noCores); err == nil || !strings.Contains(err.Error(), "placement blocked") {
		t.Errorf("unbuildable default placement: got %v, want an error naming it", err)
	}
}

// TestAutoTuneNoPlacementsUnconstrained: without a placement list
// the grid is measured once and the rules are unconstrained.
func TestAutoTuneNoPlacementsUnconstrained(t *testing.T) {
	cands := []Candidate{{Name: "a"}}
	m := fakeMeasurer{cost: func(string, int, int) float64 { return 1 }}
	table, _, err := AutoTune(cands, m, SweepConfig{Procs: []int{4}, Sizes: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rules) != 1 || table.Rules[0].Placement != "" || table.Rules[0].CoresPerNode != 0 {
		t.Fatalf("rules = %+v", table.Rules)
	}
}
