package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIntervalSetBasic(t *testing.T) {
	s := NewIntervalSet()
	if s.Total() != 0 || s.String() != "{}" {
		t.Fatalf("empty set: total=%d str=%s", s.Total(), s)
	}
	s.Add(10, 20)
	if !s.Contains(10, 20) || s.Contains(9, 20) || s.Contains(10, 21) {
		t.Fatalf("containment wrong after Add(10,20): %s", s)
	}
	if s.Total() != 10 {
		t.Fatalf("total=%d want 10", s.Total())
	}
}

func TestIntervalSetMergeAdjacent(t *testing.T) {
	s := NewIntervalSet()
	s.Add(0, 4)
	s.Add(4, 8) // adjacent: must merge
	if got := len(s.ivs); got != 1 {
		t.Fatalf("adjacent intervals not merged: %s", s)
	}
	if !s.Contains(0, 8) {
		t.Fatalf("missing merged range: %s", s)
	}
}

func TestIntervalSetMergeOverlap(t *testing.T) {
	s := NewIntervalSet()
	s.Add(0, 10)
	s.Add(5, 15)
	s.Add(20, 30)
	if got := len(s.ivs); got != 2 {
		t.Fatalf("want 2 intervals before bridge, got %s", s)
	}
	if s.Contains(15, 20) {
		t.Fatalf("gap [15,20) must not be covered: %s", s)
	}
	s.Add(12, 22) // bridges the gap: everything merges into [0,30)
	if got := len(s.ivs); got != 1 {
		t.Fatalf("want 1 interval after bridge, got %s", s)
	}
	if !s.Contains(0, 30) {
		t.Fatalf("unexpected coverage: %s", s)
	}
}

func TestIntervalSetDisjoint(t *testing.T) {
	s := NewIntervalSet(Interval{0, 2}, Interval{8, 10}, Interval{4, 6})
	if want := []Interval{{0, 2}, {4, 6}, {8, 10}}; !slices.Equal(s.ivs, want) {
		t.Fatalf("got %s, want %v", s, want)
	}
	if s.Contains(1, 5) {
		t.Fatalf("gap should not be contained: %s", s)
	}
}

func TestIntervalSetEmptyAdd(t *testing.T) {
	s := NewIntervalSet()
	s.Add(5, 5)
	s.Add(7, 3)
	if s.Total() != 0 {
		t.Fatalf("empty adds must be ignored: %s", s)
	}
	if !s.Contains(3, 3) {
		t.Fatal("empty range must be trivially contained")
	}
}

// TestIntervalSetOrderFree: a set is the bytes it covers, whatever order
// its intervals came in.
func TestIntervalSetOrderFree(t *testing.T) {
	a := NewIntervalSet(Interval{0, 4}, Interval{8, 12})
	b := NewIntervalSet(Interval{8, 12}, Interval{0, 4})
	if a.String() != b.String() {
		t.Fatalf("%s != %s", a, b)
	}
	b.Add(4, 5)
	if a.String() == b.String() {
		t.Fatalf("%s == %s", a, b)
	}
}

// TestIntervalSetQuickAgainstBitmap cross-checks the interval set against a
// naive byte bitmap over random operation sequences.
func TestIntervalSetQuickAgainstBitmap(t *testing.T) {
	const universe = 256
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewIntervalSet()
		var bm [universe]bool
		for op := 0; op < 50; op++ {
			lo := rng.Intn(universe)
			hi := rng.Intn(universe + 1)
			if hi < lo {
				lo, hi = hi, lo
			}
			s.Add(lo, hi)
			for i := lo; i < hi; i++ {
				bm[i] = true
			}
			// Spot-check random query.
			qlo := rng.Intn(universe)
			qhi := qlo + rng.Intn(universe-qlo+1)
			want := true
			for i := qlo; i < qhi; i++ {
				if !bm[i] {
					want = false
					break
				}
			}
			if s.Contains(qlo, qhi) != want {
				t.Logf("seed %d: Contains(%d,%d) = %v, want %v; set %s", seed, qlo, qhi, !want, want, s)
				return false
			}
		}
		// Total must match bitmap population.
		total := 0
		for _, b := range bm {
			if b {
				total++
			}
		}
		if s.Total() != total {
			t.Logf("seed %d: Total=%d want %d", seed, s.Total(), total)
			return false
		}
		// Normalization: sorted, disjoint, non-adjacent.
		ivs := s.ivs
		for i := range ivs {
			if ivs[i].Hi <= ivs[i].Lo {
				return false
			}
			if i > 0 && ivs[i].Lo <= ivs[i-1].Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalSetResetReuses: a reset set is empty, and refilling it
// with no more intervals than it held allocates nothing.
func TestIntervalSetResetReuses(t *testing.T) {
	s := NewIntervalSet(Interval{0, 2}, Interval{4, 6}, Interval{8, 10})
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		if s.Total() != 0 {
			t.Fatalf("reset set holds %s", s)
		}
		s.Add(8, 10)
		s.Add(0, 2)
		s.Add(4, 6)
		s.Add(2, 4)
	})
	if allocs != 0 {
		t.Errorf("refilling a reset set allocates %.1f times", allocs)
	}
	if s.String() != NewIntervalSet(Interval{0, 6}, Interval{8, 10}).String() {
		t.Errorf("refilled set %s", s)
	}
}

func TestIntervalLen(t *testing.T) {
	if (Interval{3, 7}).Len() != 4 {
		t.Fatal("len of [3,7) should be 4")
	}
	if (Interval{7, 3}).Len() != 0 {
		t.Fatal("inverted interval should have zero length")
	}
}
