package core

import (
	"testing"
	"testing/quick"
)

func TestExtentPaperExamples(t *testing.T) {
	// P = 8 (Figure 1): root owns all 8 chunks; 4 owns {4..7}; 2 owns
	// {2,3}; 6 owns {6,7}; odd ranks own only their own chunk.
	wants8 := map[int]int{0: 8, 1: 1, 2: 2, 3: 1, 4: 4, 5: 1, 6: 2, 7: 1}
	for rel, want := range wants8 {
		if got := Extent(rel, 8); got != want {
			t.Errorf("Extent(%d, 8) = %d want %d", rel, got, want)
		}
	}
	// P = 10 (Figure 2): additional branch rooted at 8 owning {8,9}.
	wants10 := map[int]int{0: 10, 2: 2, 4: 4, 6: 2, 8: 2, 1: 1, 3: 1, 5: 1, 7: 1, 9: 1}
	for rel, want := range wants10 {
		if got := Extent(rel, 10); got != want {
			t.Errorf("Extent(%d, 10) = %d want %d", rel, got, want)
		}
	}
}

// scatterParent returns the binomial-scatter parent of relative rank rel.
func scatterParent(rel int) int { return rel - rel&(-rel) }

// TestExtentMatchesScatterPaths: rank rel owns chunk c if and only if rel
// lies on c's scatter path (rel is c or an ancestor of c in the binomial
// tree). This ties the closed-form Extent to the tree semantics.
func TestExtentMatchesScatterPaths(t *testing.T) {
	for p := 1; p <= 64; p++ {
		// owners[c] = set of ranks owning chunk c per Extent.
		owners := make([]map[int]bool, p)
		for c := range owners {
			owners[c] = map[int]bool{}
		}
		for rel := 0; rel < p; rel++ {
			lo, hi := OwnedChunks(rel, p)
			if lo != rel {
				t.Fatalf("p=%d rel=%d: owned chunks must start at rel, got %d", p, rel, lo)
			}
			for c := lo; c < hi; c++ {
				owners[c][rel] = true
			}
		}
		for c := 0; c < p; c++ {
			// Ancestor chain of c: c, parent(c), ..., 0.
			want := map[int]bool{}
			for x := c; ; x = scatterParent(x) {
				want[x] = true
				if x == 0 {
					break
				}
			}
			if len(owners[c]) != len(want) {
				t.Fatalf("p=%d chunk %d: owners %v want %v", p, c, owners[c], want)
			}
			for rel := range want {
				if !owners[c][rel] {
					t.Fatalf("p=%d chunk %d: missing owner %d", p, c, rel)
				}
			}
		}
	}
}

func TestExtentBounds(t *testing.T) {
	f := func(relRaw, pRaw uint8) bool {
		p := int(pRaw)%128 + 1
		rel := int(relRaw) % p
		e := Extent(rel, p)
		if e < 1 || rel+e > p {
			return false
		}
		if rel == 0 {
			return e == p
		}
		// e is a power of two or the boundary clamp p-rel.
		return IsPow2(e) || e == p-rel
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterOwnershipRootRotation(t *testing.T) {
	// With root 3 in a 5-rank world, rank 3 owns everything and rank 4
	// (rel 1) owns only its own chunk bytes.
	p, n := 5, 50
	own := ScatterOwnership(p, 3, n)
	if own(3).Total() != n {
		t.Fatalf("root ownership = %s", own(3))
	}
	l := NewLayout(n, p)
	rel := RelRank(4, 3, p) // = 1
	want := l.Count(rel)
	if own(4).Total() != want {
		t.Fatalf("rank 4 ownership = %s want %d bytes", own(4), want)
	}
}

// missingBytes returns the total number of bytes that all ranks together
// still lack after the scatter phase — the minimum volume any allgather
// phase must deliver, and the oracle for the tuned ring's bytes.
func missingBytes(p, n int) int {
	l := NewLayout(n, p)
	total := 0
	for rel := 0; rel < p; rel++ {
		lo, hi := OwnedChunks(rel, p)
		total += n - (l.Disp(hi) - l.Disp(lo))
	}
	return total
}

func TestMissingBytesAfterScatter(t *testing.T) {
	// P=8, n=8: ownerships 8,1,2,1,4,1,2,1 -> missing 0+7+6+7+4+7+6+7 = 44.
	if got := missingBytes(8, 8); got != 44 {
		t.Fatalf("missing bytes (8,8) = %d want 44", got)
	}
	// P=10, n=10: missing 0+9+8+9+6+9+8+9+8+9 = 75.
	if got := missingBytes(10, 10); got != 75 {
		t.Fatalf("missing bytes (10,10) = %d want 75", got)
	}
}

// TestMissingBytesEqualsTunedRingBytes: the tuned ring transfers exactly
// the missing volume — the bandwidth-optimality claim.
func TestMissingBytesEqualsTunedRingBytes(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8, 9, 10, 16, 17, 33} {
		for _, n := range []int{0, 1, p - 1, p, 10 * p, 10*p + 3} {
			if n < 0 {
				continue
			}
			want := missingBytes(p, n)
			got := RingTrafficTuned(p, n).Bytes
			if got != want {
				t.Errorf("p=%d n=%d: tuned ring bytes %d != missing bytes %d", p, n, got, want)
			}
		}
	}
}
