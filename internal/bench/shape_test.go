package bench

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/tune"
)

// blocked is the blocked placement with the given cores per node.
func blocked(cores int) tune.Placement {
	return tune.Placement{Kind: topology.KindBlocked, CoresPerNode: cores}
}

// hornet places p ranks blocked over Hornet's nodes, as the figures do.
func hornet(p int) *topology.Map { return topology.Blocked(p, topology.HornetCoresPerNode) }

// These tests assert the qualitative claims of the paper's evaluation —
// the "shape" criteria from DESIGN.md — against the simulated harness.
// They are regression guards for the model calibration: if a future
// change to the engine, the schedules or the model breaks an ordering
// the paper reports, these fail.

// shapeCfg uses moderate replication for stable steady-state numbers.
func shapeCfg() SimMeasurer {
	return SimMeasurer{Model: netsim.Hornet(), Warm: 2, Total: 6}
}

// TestShapeOptNeverLosesOnRingPath: across the evaluation grid, the tuned
// broadcast is at least as fast as the native one (paper: "consistently
// outperforms").
func TestShapeOptNeverLosesOnRingPath(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	cfg := shapeCfg()
	for _, p := range []int{9, 16, 64, 129} {
		for _, n := range []int{12288, 524288, 1 << 21} {
			nat, err := MeasureSimDecision(cfg, Native, hornet(p), n)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := MeasureSimDecision(cfg, Opt, hornet(p), n)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Seconds > nat.Seconds*1.0001 {
				t.Errorf("p=%d n=%d: opt %.4g s slower than native %.4g s", p, n, opt.Seconds, nat.Seconds)
			}
		}
	}
}

// TestShapeFig6PeakGainOrdering: the peak-bandwidth gain grows with the
// process count (paper: 16 -> 64 -> 256 gives ~10%, 13%, 16%).
func TestShapeFig6PeakGainOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	cfg := shapeCfg()
	var peakGains []float64
	for _, np := range []int{16, 64, 256} {
		fig, err := Fig6(cfg, blocked(topology.HornetCoresPerNode), np, Fig6Sizes())
		if err != nil {
			t.Fatal(err)
		}
		_, peak, err := Improvement(fig)
		if err != nil {
			t.Fatal(err)
		}
		if peak <= 0 {
			t.Fatalf("np=%d: nonpositive peak gain %.2f%%", np, peak)
		}
		peakGains = append(peakGains, peak)
	}
	if !(peakGains[0] < peakGains[1] && peakGains[1] < peakGains[2]) {
		t.Fatalf("peak gains not increasing with np: %v", peakGains)
	}
}

// TestShapeFig6aCapacityDrop: the np=16 curve drops past the modelled
// capacity threshold (paper: "drop ... starts from around 4MB").
func TestShapeFig6aCapacityDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	cfg := shapeCfg()
	before, err := MeasureSimDecision(cfg, Opt, hornet(16), 1<<21) // 2 MB: inside capacity
	if err != nil {
		t.Fatal(err)
	}
	after, err := MeasureSimDecision(cfg, Opt, hornet(16), 1<<23) // 8 MB: beyond capacity
	if err != nil {
		t.Fatal(err)
	}
	if after.MBps >= before.MBps {
		t.Fatalf("no capacity drop: %.0f -> %.0f MB/s", before.MBps, after.MBps)
	}
}

// TestShapeFig7SmallMessagesDominate: the 12288-byte speedup series lies
// clearly above the long-message series at every process count, and all
// speedups are at least 1 (paper Figure 7's dominant qualitative facts).
func TestShapeFig7SmallMessagesDominate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	cfg := shapeCfg()
	fig, err := Fig7(cfg, blocked(topology.HornetCoresPerNode), Fig7Procs(), Fig7Sizes())
	if err != nil {
		t.Fatal(err)
	}
	small, big1, big2 := fig.Lines[0], fig.Lines[1], fig.Lines[2]
	for i := range small.Y {
		if small.Y[i] < 1 || big1.Y[i] < 1 || big2.Y[i] < 1 {
			t.Fatalf("speedup below 1 at np=%d: %v %v %v", small.X[i], small.Y[i], big1.Y[i], big2.Y[i])
		}
		if small.Y[i] <= big1.Y[i] || small.Y[i] <= big2.Y[i] {
			t.Fatalf("12288-byte series not dominant at np=%d: %v vs %v/%v",
				small.X[i], small.Y[i], big1.Y[i], big2.Y[i])
		}
	}
	// Paper: ">2x for 9, 17 and 33 processes" at 12288 bytes — we accept
	// >= 1.8 to keep the guard robust to small calibration shifts.
	for i, p := range small.X {
		if p <= 33 && small.Y[i] < 1.8 {
			t.Fatalf("np=%d speedup %.2f below the paper's >2x regime", p, small.Y[i])
		}
	}
	// The two long-message series stay close to each other (paper: "they
	// show similar speedups").
	for i := range big1.Y {
		ratio := big1.Y[i] / big2.Y[i]
		if ratio < 0.85 || ratio > 1.18 {
			t.Fatalf("long-message series diverge at np=%d: %v vs %v", big1.X[i], big1.Y[i], big2.Y[i])
		}
	}
}

// TestShapeContentionDrivesIntraNodeGain: the ablation finding — for the
// single-node case (Figure 6(a)'s np=16) the tuned ring's advantage is a
// memory-channel contention effect: removing contention collapses the
// gain to nearly nothing. (For multi-node runs a second mechanism —
// reduced rendezvous synchronization coupling and cross-iteration
// pipelining — survives without contention; see EXPERIMENTS.md.)
func TestShapeContentionDrivesIntraNodeGain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	const np, n = 16, 1 << 20
	with := shapeCfg()
	gainWith := fig6Gain(t, with, np, n)

	without := shapeCfg()
	m := netsim.Hornet()
	m.NoContention = true
	without.Model = m
	gainWithout := fig6Gain(t, without, np, n)

	if gainWithout >= gainWith {
		t.Fatalf("removing contention did not shrink the intra-node gain: %.2f%% -> %.2f%%", gainWith, gainWithout)
	}
	if gainWithout > 3 {
		t.Fatalf("intra-node gain without contention should be marginal, got %.2f%%", gainWithout)
	}
	if gainWith < 5 {
		t.Fatalf("intra-node gain with contention should be substantial, got %.2f%%", gainWith)
	}
}

func fig6Gain(t *testing.T, cfg SimMeasurer, np, n int) float64 {
	t.Helper()
	nat, err := MeasureSimDecision(cfg, Native, hornet(np), n)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := MeasureSimDecision(cfg, Opt, hornet(np), n)
	if err != nil {
		t.Fatal(err)
	}
	return 100 * (nat.Seconds - opt.Seconds) / nat.Seconds
}

// TestShapeLakiSameTrend: the second calibration preserves the ordering
// facts (paper: "basically deliver the same bandwidth performance trend").
func TestShapeLakiSameTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	cfg := SimMeasurer{Model: netsim.Laki(), Warm: 2, Total: 6}
	for _, p := range []int{9, 16, 33} {
		for _, n := range []int{12288, 1 << 20} {
			topo := topology.Blocked(p, topology.LakiCoresPerNode)
			nat, err := MeasureSimDecision(cfg, Native, topo, n)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := MeasureSimDecision(cfg, Opt, topo, n)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Seconds > nat.Seconds*1.0001 {
				t.Errorf("laki p=%d n=%d: opt slower than native", p, n)
			}
		}
	}
}
