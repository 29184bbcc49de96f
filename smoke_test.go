package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/tune"
)

// The benchmarks in bench_test.go regenerate the paper's figures; these
// smoke tests make `go test .` exercise the same entry points as real
// tests, so the root package never reports "[no tests to run]" and a
// broken harness fails tier-1 CI instead of hiding behind -bench.

// TestSmokePaperCounts pins the paper's Section IV in-text transfer
// counts through the analytic model the benchmarks report.
func TestSmokePaperCounts(t *testing.T) {
	cases := []struct {
		p, native, tuned int
	}{
		{8, 56, 44},
		{10, 90, 75},
	}
	for _, tc := range cases {
		nat := core.RingTrafficNative(tc.p, 64*tc.p)
		tun := core.RingTrafficTuned(tc.p, 64*tc.p)
		if nat.Messages != tc.native || tun.Messages != tc.tuned {
			t.Errorf("P=%d: counts %d/%d want %d/%d", tc.p, nat.Messages, tun.Messages, tc.native, tc.tuned)
		}
	}
}

// TestSmokeSimHarness runs one simulated measurement per ring variant —
// the exact harness the Figure 6 benchmarks drive — and checks the
// paper's direction: opt at least matches native for a long message.
func TestSmokeSimHarness(t *testing.T) {
	cfg := simCfg()
	const np, n = 64, 1 << 20
	nat, err := bench.MeasureSimDecision(cfg, bench.Native, hornet(np), n)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := bench.MeasureSimDecision(cfg, bench.Opt, hornet(np), n)
	if err != nil {
		t.Fatal(err)
	}
	if nat.MBps <= 0 || opt.MBps <= 0 {
		t.Fatalf("non-positive bandwidth: native %v, opt %v", nat, opt)
	}
	if opt.Seconds > nat.Seconds*1.05 {
		t.Errorf("opt slower than native at (np=%d, n=%d): %g vs %g s", np, n, opt.Seconds, nat.Seconds)
	}
}

// TestSmokeSegmentedRingDecision runs a segmented-ring decision through
// the simulated harness, covering the registry path the segment-size
// sweep depends on.
func TestSmokeSegmentedRingDecision(t *testing.T) {
	cfg := simCfg()
	d := tune.Decision{Algorithm: tune.RingOptSeg, SegSize: 8192}
	r, err := bench.MeasureSimDecision(cfg, d, hornet(64), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.MBps <= 0 {
		t.Fatalf("non-positive bandwidth: %+v", r)
	}
}
