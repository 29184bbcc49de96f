package tune

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

// fakeMeasurer scores decisions from a fixed cost function, making the
// winner at every grid point deterministic without any simulation.
type fakeMeasurer struct {
	cost func(name string, p, n int) float64
}

func (m fakeMeasurer) Measure(d Decision, topo *topology.Map, n int) (float64, error) {
	return m.cost(d.Algorithm, topo.NP(), n), nil
}

func (fakeMeasurer) Describe() string { return "on a fake" }

// grid is a SweepConfig with only the two required axes.
func grid(procs, sizes []int) SweepConfig { return SweepConfig{Procs: procs, Sizes: sizes} }

func TestAutoTuneDerivesCrossoverRules(t *testing.T) {
	// "a" wins below 1 KiB, "b" wins at and above — a single crossover.
	cands := []Candidate{
		{Name: "a"},
		{Name: "b"},
	}
	m := fakeMeasurer{cost: func(name string, p, n int) float64 {
		if (n < 1024) == (name == "a") {
			return 1
		}
		return 2
	}}
	table, winners, err := AutoTune(cands, m, grid([]int{4, 8}, []int{256, 512, 1024, 2048}))
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
		{Name: "fast-but-pow2", Applies: func(e Env) bool { return e.Pow2() }},
		{Name: "always"},
	}
	m := fakeMeasurer{cost: func(name string, p, n int) float64 {
		if name == "fast-but-pow2" {
			return 1
		}
		return 2
	}}
	table, _, err := AutoTune(cands, m, grid([]int{8, 10}, []int{64}))
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
	cands := []Candidate{{Name: "seg", SegSize: 4096}}
	m := fakeMeasurer{cost: func(string, int, int) float64 { return 1 }}
	table, winners, err := AutoTune(cands, m, grid([]int{4}, []int{64}))
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
	if _, _, err := AutoTune(nil, m, grid([]int{4}, []int{64})); err == nil {
		t.Error("no candidates must fail")
	}
	cands := []Candidate{{Name: "a"}}
	if _, _, err := AutoTune(cands, m, grid(nil, []int{64})); err == nil {
		t.Error("empty grid must fail")
	}
	// No applicable candidate at a grid point.
	never := []Candidate{{Name: "never", Applies: func(Env) bool { return false }}}
	if _, _, err := AutoTune(never, m, grid([]int{4}, []int{64})); err == nil {
		t.Error("unmeasurable grid point must fail")
	}
	// Measurement failures propagate.
	failing := measureError{}
	if _, _, err := AutoTune(cands, failing, grid([]int{4}, []int{64})); err == nil {
		t.Error("measurer error must propagate")
	}
}

type measureError struct{}

func (measureError) Measure(Decision, *topology.Map, int) (float64, error) {
	return 0, fmt.Errorf("boom")
}

func (measureError) Describe() string { return "on a failing fake" }
