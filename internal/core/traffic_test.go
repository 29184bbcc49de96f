package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// TestTrafficPaperClaims checks the exact in-text numbers from Section IV:
// P=8: 56 -> 44 (reduced by 12); P=10: 90 -> 75 (reduced by 15).
func TestTrafficPaperClaims(t *testing.T) {
	if got := RingTrafficNative(8, 8).Messages; got != 56 {
		t.Errorf("native ring messages P=8: %d want 56", got)
	}
	if got := RingTrafficTuned(8, 8).Messages; got != 44 {
		t.Errorf("tuned ring messages P=8: %d want 44", got)
	}
	if got := TunedSavedMessages(8); got != 12 {
		t.Errorf("saved messages P=8: %d want 12", got)
	}
	if got := RingTrafficNative(10, 10).Messages; got != 90 {
		t.Errorf("native ring messages P=10: %d want 90", got)
	}
	if got := RingTrafficTuned(10, 10).Messages; got != 75 {
		t.Errorf("tuned ring messages P=10: %d want 75", got)
	}
	if got := TunedSavedMessages(10); got != 15 {
		t.Errorf("saved messages P=10: %d want 15", got)
	}
}

// TestTrafficMatchesSchedules: the analytic model must agree exactly with
// counts derived from the generated programs, for all roots.
func TestTrafficMatchesSchedules(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 9, 10, 13, 16, 17, 24, 33} {
		for _, n := range []int{0, 1, p - 1, p, 5 * p, 64*p + 7} {
			if n < 0 {
				continue
			}
			for _, root := range []int{0, p / 2, p - 1} {
				if root < 0 || root >= p {
					continue
				}
				natStats := sched.Generate("ring-allgather-native", RingNativeOps, p, root, n, 0).Stats()
				nat := RingTrafficNative(p, n)
				if natStats.Messages != nat.Messages || natStats.Bytes != nat.Bytes ||
					natStats.NonEmptyMessages != nat.NonEmptyMessages {
					t.Fatalf("p=%d n=%d root=%d: native model %+v != schedule %+v", p, n, root, nat, natStats)
				}
				scatStats := sched.Generate("binomial-scatter", ScatterOps, p, root, n, 0).Stats()
				scat := ScatterTraffic(p, n)
				if scatStats.Messages != scat.Messages || scatStats.Bytes != scat.Bytes {
					t.Fatalf("p=%d n=%d root=%d: scatter model %+v != schedule %+v", p, n, root, scat, scatStats)
				}
				// The tuned ring is the opt broadcast's ring phase.
				optStats := sched.Generate("bcast-opt", BcastOptOps, p, root, n, 0).Stats()
				tun := RingTrafficTuned(p, n)
				if optStats.Messages != scat.Messages+tun.Messages || optStats.Bytes != scat.Bytes+tun.Bytes ||
					optStats.NonEmptyMessages != scat.NonEmptyMessages+tun.NonEmptyMessages {
					t.Fatalf("p=%d n=%d root=%d: scatter %+v + tuned model %+v != schedule %+v", p, n, root, scat, tun, optStats)
				}
			}
		}
	}
}

// TestTunedSavingsClosedForm: message savings equal the sum of (step-1)
// over receive-only ranks, and the tuned count is never larger than the
// native count.
func TestTunedSavingsClosedForm(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw)%200 + 1
		n := 8 * p
		nat := RingTrafficNative(p, n)
		tun := RingTrafficTuned(p, n)
		saved := TunedSavedMessages(p)
		if nat.Messages-tun.Messages != saved {
			return false
		}
		return tun.Messages <= nat.Messages && tun.Bytes <= nat.Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSavingsGrowWithP: the paper deduces "the decrement in the amount of
// the transferred data will increase as the growing of the process count".
// Savings are monotone over doubling P (not strictly monotone point-wise,
// but doubling the power-of-two P must increase savings).
func TestSavingsGrowWithP(t *testing.T) {
	prev := TunedSavedMessages(2)
	for p := 4; p <= 1024; p *= 2 {
		cur := TunedSavedMessages(p)
		if cur <= prev {
			t.Fatalf("savings not growing: P=%d saves %d, P=%d saves %d", p/2, prev, p, cur)
		}
		prev = cur
	}
}

// TestSavingsClosedFormPow2: for power-of-two P the receive-only ranks have
// steps P, P/2 (once), and 2 (for the remaining P/2-1 leaves)... computed
// independently here by direct summation over extents: savings =
// sum over subtree roots (extent - 1).
func TestSavingsViaExtents(t *testing.T) {
	for p := 2; p <= 512; p++ {
		want := 0
		for rel := 0; rel < p; rel++ {
			e := Extent(rel, p)
			if e > 1 {
				want += e - 1
			}
		}
		if got := TunedSavedMessages(p); got != want {
			t.Fatalf("p=%d: savings %d want %d (extent sum)", p, got, want)
		}
	}
}

// TestBcastTrafficTotals: full-broadcast traffic is scatter + ring.
func TestBcastTrafficTotals(t *testing.T) {
	for _, p := range []int{2, 8, 10, 17} {
		n := 16 * p
		scat := ScatterTraffic(p, n)
		nat, opt := RingTrafficNative(p, n), RingTrafficTuned(p, n)
		natProg := sched.Generate("bcast-native", BcastNativeOps, p, 0, n, 0).Stats()
		optProg := sched.Generate("bcast-opt", BcastOptOps, p, 0, n, 0).Stats()
		if scat.Messages+nat.Messages != natProg.Messages || scat.Bytes+nat.Bytes != natProg.Bytes {
			t.Fatalf("p=%d: native scatter %+v + ring %+v != program %+v", p, scat, nat, natProg)
		}
		if scat.Messages+opt.Messages != optProg.Messages || scat.Bytes+opt.Bytes != optProg.Bytes {
			t.Fatalf("p=%d: opt scatter %+v + ring %+v != program %+v", p, scat, opt, optProg)
		}
		if optProg.Messages >= natProg.Messages {
			t.Fatalf("p=%d: opt must save messages (%d vs %d)", p, optProg.Messages, natProg.Messages)
		}
	}
}

// TestNativeBytesClosedForm: the enclosed ring moves (P-1)*n bytes.
func TestNativeBytesClosedForm(t *testing.T) {
	for _, p := range []int{2, 5, 8, 10, 33} {
		for _, n := range []int{0, 1, p, 100 * p, 101*p + 13} {
			if got := RingTrafficNative(p, n).Bytes; got != (p-1)*n {
				t.Fatalf("p=%d n=%d: native bytes %d want %d", p, n, got, (p-1)*n)
			}
		}
	}
}

func TestTrafficDegenerate(t *testing.T) {
	if tr := RingTrafficNative(1, 100); tr.Messages != 0 || tr.Bytes != 0 {
		t.Fatalf("p=1 native traffic = %+v", tr)
	}
	if tr := RingTrafficTuned(1, 100); tr.Messages != 0 || tr.Bytes != 0 {
		t.Fatalf("p=1 tuned traffic = %+v", tr)
	}
	if TunedSavedMessages(1) != 0 || TunedSavedMessages(0) != 0 {
		t.Fatal("degenerate savings must be 0")
	}
}
