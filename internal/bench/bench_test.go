package bench

import (
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/tune"
)

// broadcastOnce runs one broadcast with the options on an 8-rank engine
// world placed by pl.
func broadcastOnce(pl tune.Placement, o collective.Options) error {
	topo, err := pl.Map(8)
	if err != nil {
		return err
	}
	return engine.RunWith(engine.Options{NP: 8, Topology: topo}, func(c mpi.Comm) error {
		return collective.Broadcast(c, make([]byte, 2048), 0, o)
	})
}

// algoNames is the -algo vocabulary beyond plain registry names.
var algoNames = []string{"native", "opt", "binomial", "auto", "auto-opt", "smp", "smp-opt"}

// TestParseAlgoRunsOnBothHarnesses: every -algo spelling resolves to
// options that run on the real engine and, decided for the same
// environment, simulate on the model — the SMP rows included, on the
// multi-node placement they need.
func TestParseAlgoRunsOnBothHarnesses(t *testing.T) {
	sim, topo := SimMeasurer{Model: netsim.Hornet(), Warm: 1, Total: 3}, topology.Blocked(10, 4)
	for _, name := range algoNames {
		o, err := ParseAlgo(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := broadcastOnce(blocked(4), o); err != nil {
			t.Fatalf("%s on the engine: %v", name, err)
		}
		d := o.Decide(tune.EnvOf(65536, 10, topo))
		if res, err := MeasureSimDecision(sim, d, topo, 65536); err != nil || res.Seconds <= 0 {
			t.Fatalf("%s (%+v) on the model: %+v, %v", name, d, res, err)
		}
	}
}

// TestParseAlgoVocabulary pins what each spelling selects, and that the
// SMP rows on a single node are refused by name instead of silently
// running a binomial tree.
func TestParseAlgoVocabulary(t *testing.T) {
	for name, want := range map[string]string{
		"native": tune.RingNative, "opt": tune.RingOpt, "binomial": tune.Binomial,
		"smp": tune.SMP, "smp-opt": tune.SMPOpt, tune.RingOptSeg: tune.RingOptSeg,
	} {
		if o, err := ParseAlgo(name); err != nil || o.Algorithm != want || o.Tuner != nil {
			t.Errorf("ParseAlgo(%q) = %+v, %v; want algorithm %q", name, o, err, want)
		}
	}
	for name, tuned := range map[string]bool{"auto": false, "auto-opt": true} {
		if o, err := ParseAlgo(name); err != nil || o.Algorithm != "" || o.Tuner != (tune.MPICH3{Tuned: tuned}) {
			t.Errorf("ParseAlgo(%q) = %+v, %v", name, o, err)
		}
	}
	if _, err := ParseAlgo("bogus"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("bogus name: %v", err)
	}
	if _, err := ParseAlgo(""); err == nil {
		t.Error("an empty name must fail")
	}
	err := broadcastOnce(tune.Placement{}, collective.Options{Algorithm: tune.SMP})
	if err == nil || !strings.Contains(err.Error(), "cannot run") {
		t.Errorf("smp on one node: %v, want the registry's capability error", err)
	}
}

// TestAutoFollowsDispatch: the auto spellings decide like MPICH3.
func TestAutoFollowsDispatch(t *testing.T) {
	auto, _ := ParseAlgo("auto")
	autoOpt, _ := ParseAlgo("auto-opt")
	for _, tc := range []struct {
		o    collective.Options
		p, n int
		want string
	}{
		{auto, 9, 12288, tune.RingNative},    // medium npof2 -> ring path
		{autoOpt, 9, 12288, tune.RingOpt},    // ... tuned
		{autoOpt, 9, 100, tune.Binomial},     // short message
		{auto, 16, 65536, tune.ScatterRdb},   // medium power-of-two
		{autoOpt, 16, 1 << 20, tune.RingOpt}, // long
	} {
		if got := tc.o.Decide(tune.Env{Bytes: tc.n, Procs: tc.p}).Algorithm; got != tc.want {
			t.Errorf("p=%d n=%d: selected %q want %q", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestFig6SmallSweep(t *testing.T) {
	cfg := SimMeasurer{Model: netsim.Hornet(), Warm: 1, Total: 3}
	fig, err := Fig6(cfg, blocked(24), 16, []int{1 << 19, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Lines) != 2 || len(fig.Lines[0].Y) != 2 {
		t.Fatalf("figure shape wrong: %+v", fig)
	}
	for i := range fig.Lines[0].Y {
		if fig.Lines[1].Y[i] < fig.Lines[0].Y[i] {
			t.Fatalf("opt below native at %d bytes", fig.Lines[0].X[i])
		}
	}
	maxGain, peakGain, err := Improvement(fig)
	if err != nil {
		t.Fatal(err)
	}
	if maxGain <= 0 || peakGain <= 0 {
		t.Fatalf("gains: %v %v", maxGain, peakGain)
	}
	out := FormatFigure(fig)
	if !strings.Contains(out, "MPI_Bcast_opt") || !strings.Contains(out, "524288") {
		t.Fatalf("format missing content:\n%s", out)
	}
}

func TestFig7SmallSweep(t *testing.T) {
	cfg := SimMeasurer{Model: netsim.Hornet(), Warm: 1, Total: 3}
	fig, err := Fig7(cfg, blocked(24), []int{9, 17}, []int{12288})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Lines) != 1 || len(fig.Lines[0].Y) != 2 {
		t.Fatalf("figure shape wrong: %+v", fig)
	}
	for i, s := range fig.Lines[0].Y {
		if s < 1 {
			t.Fatalf("speedup < 1 at np=%d: %v", fig.Lines[0].X[i], s)
		}
	}
}

func TestTransferCountsTable(t *testing.T) {
	rows := TransferCounts([]int{8, 10}, 8*64)
	if rows[0].NativeMsgs != 56 || rows[0].TunedMsgs != 44 || rows[0].Saved != 12 {
		t.Fatalf("P=8 row = %+v", rows[0])
	}
	if rows[1].NativeMsgs != 90 || rows[1].TunedMsgs != 75 || rows[1].Saved != 15 {
		t.Fatalf("P=10 row = %+v", rows[1])
	}
	out := FormatCounts(rows)
	if !strings.Contains(out, "56") || !strings.Contains(out, "75") {
		t.Fatalf("format missing counts:\n%s", out)
	}
}

func TestImprovementValidation(t *testing.T) {
	if _, _, err := Improvement(Figure{}); err == nil {
		t.Fatal("improvement with no series must fail")
	}
}

func TestFigSizeAxes(t *testing.T) {
	s6 := Fig6Sizes()
	if s6[0] != 1<<19 || s6[len(s6)-1] != 1<<25 {
		t.Fatalf("fig6 sizes = %v", s6)
	}
	s8 := Fig8Sizes()
	if s8[0] != 12288 || s8[len(s8)-1] > 2560000 {
		t.Fatalf("fig8 sizes = %v", s8)
	}
	if len(Fig7Procs()) != 5 || len(Fig7Sizes()) != 3 {
		t.Fatal("fig7 axes wrong")
	}
	for _, p := range Fig7Procs() {
		if p%2 == 0 {
			t.Fatalf("fig7 process counts must be non-power-of-two odd values, got %d", p)
		}
	}
}

func TestPaperClaimsIndexed(t *testing.T) {
	ids := map[string]bool{}
	for _, c := range PaperClaims {
		if c.Experiment == "" || c.Statement == "" || c.Check == "" {
			t.Fatalf("incomplete claim: %+v", c)
		}
		ids[c.Experiment] = true
	}
	for _, want := range []string{"SecIV-counts", "fig6a", "fig6b", "fig6c", "fig7", "fig8"} {
		if !ids[want] {
			t.Fatalf("missing claim for %s", want)
		}
	}
}
