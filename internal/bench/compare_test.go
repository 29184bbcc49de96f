package bench

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestAutoTunePicksPaperRingForLongMessages is the paper-scale acceptance
// run: auto-tuning MPICH3's own algorithm family on the netsim Hornet
// model at the paper's process counts must, for every long message
// (>= tune.LongMsgSize), select the paper's tuned non-enclosed ring —
// the measured confirmation of the paper's claim that the optimized ring
// dominates the long-message regime.
func TestAutoTunePicksPaperRingForLongMessages(t *testing.T) {
	procs := []int{16, 64, 129}
	sizes := []int{1 << 18, tune.LongMsgSize, 1 << 20, 1 << 21}
	table, winners, err := tune.AutoTune(FamilyCandidates(), shapeCfg(),
		tune.SweepConfig{Procs: procs, Sizes: sizes, Place: blocked(topology.HornetCoresPerNode)})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range winners {
		if w.Bytes >= tune.LongMsgSize && w.Decision.Algorithm != tune.RingOpt {
			t.Errorf("long-message winner at (p=%d, n=%d) = %q, want %q",
				w.Procs, w.Bytes, w.Decision.Algorithm, tune.RingOpt)
		}
		if w.Seconds <= 0 {
			t.Errorf("non-positive time at (p=%d, n=%d)", w.Procs, w.Bytes)
		}
	}

	// The emitted JSON table must survive a round trip and keep the
	// long-message decisions.
	data, err := table.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := tune.ParseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		d, ok := parsed.Lookup(tune.Env{Bytes: 1 << 20, Procs: p, NumNodes: 6})
		if !ok || d.Algorithm != tune.RingOpt {
			t.Errorf("table lookup (p=%d, n=1MiB) = (%+v, %v), want %q", p, d, ok, tune.RingOpt)
		}
	}
}

// TestCompareTunedBeatsNativeDispatch checks the tuned-vs-native report:
// where the auto-tuned table picks the paper's ring over the native one,
// the simulated bandwidth must not regress.
func TestCompareTunedBeatsNativeDispatch(t *testing.T) {
	procs := []int{129}
	sizes := []int{tune.LongMsgSize, 1 << 21}
	cfg := shapeCfg()
	sweep := tune.SweepConfig{Procs: procs, Sizes: sizes, Place: blocked(topology.HornetCoresPerNode)}
	table, _, err := tune.AutoTune(FamilyCandidates(), cfg, sweep)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CompareTuned(cfg, table, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(procs)*len(sizes) {
		t.Fatalf("want %d rows, got %d", len(procs)*len(sizes), len(rows))
	}
	for _, r := range rows {
		if r.NativeAlgo != tune.RingNative {
			t.Errorf("native dispatch at (p=%d, n=%d) = %q, want %q", r.P, r.N, r.NativeAlgo, tune.RingNative)
		}
		if r.TunedAlgo != tune.RingOpt {
			t.Errorf("tuned dispatch at (p=%d, n=%d) = %q, want %q", r.P, r.N, r.TunedAlgo, tune.RingOpt)
		}
		if r.Speedup <= 1.0 {
			t.Errorf("tuned ring must beat native at (p=%d, n=%d), speedup %.3f", r.P, r.N, r.Speedup)
		}
	}
	if out := FormatTunedRows(rows); out == "" {
		t.Error("empty report")
	}
}

// recording notes which algorithms a measurer was asked to measure.
type recording struct {
	tune.Measurer
	seen map[string]bool
}

func (r recording) Measure(d tune.Decision, topo *topology.Map, n int) (float64, error) {
	r.seen[d.Algorithm] = true
	return r.Measurer.Measure(d, topo, n)
}

// TestBothSubstratesRankEveryRow: on a multi-node placement the model and
// the engine are each asked to measure every row of the registry — the
// SMP rows included, which the model could not replay while they had no
// schedule — and each returns a winner.
func TestBothSubstratesRankEveryRow(t *testing.T) {
	sim := shapeCfg()
	eng := measure.EngineMeasurer{Warmup: 1, Reps: 2, Stat: measure.StatMin}
	for name, tc := range map[string]struct {
		m     tune.Measurer
		p     int
		place tune.Placement
	}{
		"netsim": {sim, 48, blocked(topology.HornetCoresPerNode)},
		"engine": {eng, 6, blocked(2)},
	} {
		seen := map[string]bool{}
		_, winners, err := tune.AutoTune(collective.Candidates(), recording{tc.m, seen},
			tune.SweepConfig{Procs: []int{tc.p}, Sizes: []int{1 << 16}, Placements: []tune.Placement{tc.place}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(winners) != 1 || winners[0].Seconds <= 0 {
			t.Fatalf("%s: winners %+v", name, winners)
		}
		for _, r := range collective.Algorithms() {
			if want := !r.Caps.Pow2Only; seen[r.Name] != want {
				t.Errorf("%s: measured %s = %v, want %v", name, r.Name, seen[r.Name], want)
			}
		}
	}
}

// TestSimMeasurerSmoke: a real virtual-time measurement of the paper's
// two rings on a tiny point, where opt must not lose, and a
// topology-composed schedule measured on the map it is given.
func TestSimMeasurerSmoke(t *testing.T) {
	var m SimMeasurer
	const n = 1 << 19
	topo := topology.Blocked(10, 4)
	tn, err := m.Measure(Native, topo, n)
	if err != nil {
		t.Fatal(err)
	}
	to, err := m.Measure(Opt, topo, n)
	if err != nil {
		t.Fatal(err)
	}
	if tn <= 0 || to <= 0 {
		t.Fatalf("non-positive times: native %g, opt %g", tn, to)
	}
	if to > tn*1.05 {
		t.Errorf("tuned ring slower than native: %g vs %g", to, tn)
	}
	smp := tune.Decision{Algorithm: tune.SMPOpt}
	if ts, err := m.Measure(smp, topo, n); err != nil || ts <= 0 {
		t.Errorf("smp-opt over 3 nodes: %g, %v", ts, err)
	}
	if _, err := m.Measure(smp, topology.SingleNode(10), n); err == nil {
		t.Error("smp-opt on one node: want the capability error")
	}
	if got := m.Describe(); got != `on netsim model "hornet"` {
		t.Errorf("Describe() = %q", got)
	}
}
