package bench

import (
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/tune"
)

func TestMeasureRealProtocol(t *testing.T) {
	res, err := MeasureReal(RealConfig{NP: 4, Iterations: 5, Variant: Opt}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 4096 || res.Seconds <= 0 || res.MBps <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestMeasureRealAllVariants(t *testing.T) {
	for _, v := range []Variant{Native, Opt, Binomial, AutoNative, AutoOpt, SMPNative, SMPOpt} {
		cfg := RealConfig{NP: 8, CoresPerNode: 4, Iterations: 3, Variant: v}
		res, err := MeasureReal(cfg, 2048)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.MBps <= 0 {
			t.Fatalf("%v: bandwidth %v", v, res.MBps)
		}
	}
}

func TestMeasureSimVariants(t *testing.T) {
	cfg := SimConfig{Model: netsim.Hornet(), CoresPerNode: 24, Warm: 1, Total: 3}
	for _, v := range []Variant{Native, Opt, Binomial, AutoNative, AutoOpt} {
		res, err := MeasureSim(cfg, v, 10, 65536)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Seconds <= 0 {
			t.Fatalf("%v: seconds %v", v, res.Seconds)
		}
	}
	// SMP variants have no static schedule.
	if _, err := MeasureSim(cfg, SMPNative, 10, 65536); err == nil {
		t.Fatal("SMP variant must be rejected by the simulated harness")
	}
}

func TestVariantParseAndString(t *testing.T) {
	for _, name := range []string{"native", "opt", "binomial", "auto", "auto-opt", "smp", "smp-opt"} {
		v, err := ParseVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		if v.String() == "" {
			t.Fatalf("empty string for %q", name)
		}
	}
	if _, err := ParseVariant("bogus"); err == nil {
		t.Fatal("bogus variant must fail")
	}
}

func TestAutoVariantProgramFollowsDispatch(t *testing.T) {
	// 12288 bytes, 9 ranks: medium npof2 -> ring path (native vs opt).
	prN, err := AutoNative.Program(9, 0, 12288)
	if err != nil {
		t.Fatal(err)
	}
	if prN.Name != tune.RingNative {
		t.Fatalf("auto-native selected %q", prN.Name)
	}
	prO, err := AutoOpt.Program(9, 0, 12288)
	if err != nil {
		t.Fatal(err)
	}
	if prO.Name != tune.RingOpt {
		t.Fatalf("auto-opt selected %q", prO.Name)
	}
	// Short message: binomial for both.
	prS, err := AutoOpt.Program(9, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if prS.Name != tune.Binomial {
		t.Fatalf("short message selected %q", prS.Name)
	}
	// Medium power-of-two: recursive doubling.
	prR, err := AutoNative.Program(16, 0, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if prR.Name != tune.ScatterRdb {
		t.Fatalf("medium pow2 selected %q", prR.Name)
	}
}

func TestFig6SmallSweep(t *testing.T) {
	cfg := SimConfig{Model: netsim.Hornet(), CoresPerNode: 24, Warm: 1, Total: 3}
	fig, err := Fig6(cfg, 16, []int{1 << 19, 1 << 20})
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
	cfg := SimConfig{Model: netsim.Hornet(), CoresPerNode: 24, Warm: 1, Total: 3}
	fig, err := Fig7(cfg, []int{9, 17}, []int{12288})
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
