package tune

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// fakeMeasurer scores candidates from a fixed cost function, making the
// winner at every grid point deterministic without any simulation.
type fakeMeasurer struct {
	cost func(name string, p, n int) float64
}

func (m fakeMeasurer) Env(p, n int) Env { return Env{Bytes: n, Procs: p, NumNodes: 1} }

func (m fakeMeasurer) Measure(c Candidate, p, n int) (float64, error) {
	return m.cost(c.Name, p, n), nil
}

// fixed is the measurer factory of a measurer that ignores placement.
func fixed(m Measurer) func(Placement) Measurer {
	return func(Placement) Measurer { return m }
}

// grid is a SweepConfig with only the two required axes.
func grid(procs, sizes []int) SweepConfig { return SweepConfig{Procs: procs, Sizes: sizes} }

func trivialProgram(topo *topology.Map, root, n, _ int) (*sched.Program, error) {
	return sched.Generate("binomial-bcast", core.BinomialOps, topo.NP(), root, n, 0), nil
}

func TestAutoTuneDerivesCrossoverRules(t *testing.T) {
	// "a" wins below 1 KiB, "b" wins at and above — a single crossover.
	cands := []Candidate{
		{Name: "a", Program: trivialProgram},
		{Name: "b", Program: trivialProgram},
	}
	m := fakeMeasurer{cost: func(name string, p, n int) float64 {
		if (n < 1024) == (name == "a") {
			return 1
		}
		return 2
	}}
	table, winners, err := AutoTune(cands, fixed(m), grid([]int{4, 8}, []int{256, 512, 1024, 2048}))
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 8 {
		t.Fatalf("want 8 winners, got %d", len(winners))
	}
	// Two rules per process count: [0, 1024) -> a, [1024, inf) -> b.
	if len(table.Rules) != 4 {
		t.Fatalf("want 4 rules, got %d: %+v", len(table.Rules), table.Rules)
	}
	for _, p := range []int{4, 8} {
		for _, tc := range []struct {
			n    int
			want string
		}{{0, "a"}, {700, "a"}, {1023, "a"}, {1024, "b"}, {1 << 30, "b"}} {
			d, ok := table.Lookup(Env{Bytes: tc.n, Procs: p})
			if !ok || d.Algorithm != tc.want {
				t.Errorf("Lookup(n=%d, p=%d) = (%+v, %v) want %q", tc.n, p, d, ok, tc.want)
			}
		}
	}
	// Untuned process counts fall through.
	if _, ok := table.Lookup(Env{Bytes: 512, Procs: 5}); ok {
		t.Error("p=5 must not match an exact-procs table")
	}
}

func TestAutoTuneRespectsApplicability(t *testing.T) {
	// "fast-but-pow2" is cheapest everywhere it applies; at p=10 the only
	// applicable candidate must win instead.
	cands := []Candidate{
		{Name: "fast-but-pow2", Program: trivialProgram, Applies: func(e Env) bool { return e.Pow2() }},
		{Name: "always", Program: trivialProgram},
	}
	m := fakeMeasurer{cost: func(name string, p, n int) float64 {
		if name == "fast-but-pow2" {
			return 1
		}
		return 2
	}}
	table, _, err := AutoTune(cands, fixed(m), grid([]int{8, 10}, []int{64}))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := table.Lookup(Env{Bytes: 64, Procs: 8}); d.Algorithm != "fast-but-pow2" {
		t.Errorf("p=8: got %q", d.Algorithm)
	}
	if d, _ := table.Lookup(Env{Bytes: 64, Procs: 10}); d.Algorithm != "always" {
		t.Errorf("p=10: got %q", d.Algorithm)
	}
}

func TestAutoTuneCopiesSegSize(t *testing.T) {
	cands := []Candidate{{Name: "seg", SegSize: 4096, Program: trivialProgram}}
	m := fakeMeasurer{cost: func(string, int, int) float64 { return 1 }}
	table, winners, err := AutoTune(cands, fixed(m), grid([]int{4}, []int{64}))
	if err != nil {
		t.Fatal(err)
	}
	if winners[0].Decision.SegSize != 4096 {
		t.Errorf("winner seg = %d", winners[0].Decision.SegSize)
	}
	if d, _ := table.Lookup(Env{Bytes: 64, Procs: 4}); d.SegSize != 4096 {
		t.Errorf("table seg = %d", d.SegSize)
	}
}

func TestAutoTuneErrors(t *testing.T) {
	m := fakeMeasurer{cost: func(string, int, int) float64 { return 1 }}
	if _, _, err := AutoTune(nil, fixed(m), grid([]int{4}, []int{64})); err == nil {
		t.Error("no candidates must fail")
	}
	cands := []Candidate{{Name: "a", Program: trivialProgram}}
	if _, _, err := AutoTune(cands, fixed(m), grid(nil, []int{64})); err == nil {
		t.Error("empty grid must fail")
	}
	// No applicable candidate at a grid point.
	never := []Candidate{{Name: "never", Program: trivialProgram, Applies: func(Env) bool { return false }}}
	if _, _, err := AutoTune(never, fixed(m), grid([]int{4}, []int{64})); err == nil {
		t.Error("unmeasurable grid point must fail")
	}
	// Measurement failures propagate.
	failing := measureError{}
	if _, _, err := AutoTune(cands, fixed(failing), grid([]int{4}, []int{64})); err == nil {
		t.Error("measurer error must propagate")
	}
}

type measureError struct{}

func (measureError) Env(p, n int) Env { return Env{Bytes: n, Procs: p, NumNodes: 1} }
func (measureError) Measure(c Candidate, p, n int) (float64, error) {
	return 0, fmt.Errorf("boom")
}

func TestSimMeasurerSmoke(t *testing.T) {
	// End-to-end through netsim on a tiny point: a real virtual-time
	// measurement of the paper's two rings, and opt must not lose.
	m := SimMeasurer{Place: Placement{Kind: topology.KindBlocked, CoresPerNode: 4}}
	native := Candidate{Name: RingNative, Program: func(topo *topology.Map, root, n, _ int) (*sched.Program, error) {
		return sched.Generate("bcast-native", core.BcastNativeOps, topo.NP(), root, n, 0), nil
	}}
	opt := Candidate{Name: RingOpt, Program: func(topo *topology.Map, root, n, _ int) (*sched.Program, error) {
		return sched.Generate("bcast-opt", core.BcastOptOps, topo.NP(), root, n, 0), nil
	}}
	const p, n = 10, 1 << 19
	tn, err := m.Measure(native, p, n)
	if err != nil {
		t.Fatal(err)
	}
	to, err := m.Measure(opt, p, n)
	if err != nil {
		t.Fatal(err)
	}
	if tn <= 0 || to <= 0 {
		t.Fatalf("non-positive times: native %g, opt %g", tn, to)
	}
	if to > tn*1.05 {
		t.Errorf("tuned ring slower than native: %g vs %g", to, tn)
	}
	if e := m.Env(p, n); e.NumNodes != 3 {
		t.Errorf("Env nodes = %d want 3", e.NumNodes)
	}
	// The generator sees the topology the measurement runs under, so a
	// topology-composed schedule is measured on the map it was built for.
	var saw *topology.Map
	smp := Candidate{Name: SMPOpt, Program: func(topo *topology.Map, root, n, _ int) (*sched.Program, error) {
		saw = topo
		return sched.Generate(SMPOpt, core.SMPOptOps(topo), topo.NP(), root, n, 0), nil
	}}
	if ts, err := m.Measure(smp, p, n); err != nil || ts <= 0 || saw == nil || saw.NumNodes() != 3 {
		t.Errorf("smp-opt: %g, %v on %v", ts, err, saw)
	}
}
