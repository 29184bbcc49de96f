package core

import (
	"testing"

	"repro/internal/sched"
)

// FuzzLayoutInvariants checks the chunk layout under arbitrary inputs:
// chunks partition [0, n), stay in bounds, and never go negative.
func FuzzLayoutInvariants(f *testing.F) {
	f.Add(8, 8)
	f.Add(0, 1)
	f.Add(12288, 129)
	f.Add(5, 4)
	f.Add(1<<20, 256)
	f.Fuzz(func(t *testing.T, n, p int) {
		if p <= 0 || p > 4096 || n < 0 || n > 1<<26 {
			t.Skip()
		}
		l := NewLayout(n, p)
		total := 0
		for rel := 0; rel < p; rel++ {
			c, d := l.Count(rel), l.Disp(rel)
			if c < 0 || d < 0 || d+c > n {
				t.Fatalf("chunk %d out of bounds: disp=%d count=%d n=%d", rel, d, c, n)
			}
			total += c
		}
		if total != n {
			t.Fatalf("chunks sum to %d, want %d", total, n)
		}
	})
}

// FuzzStepFlagTheorems checks the Listing-1 pair against the ownership
// theorems for arbitrary (rel, p).
func FuzzStepFlagTheorems(f *testing.F) {
	f.Add(0, 8)
	f.Add(7, 8)
	f.Add(119, 121)
	f.Add(4, 10)
	f.Fuzz(func(t *testing.T, rel, p int) {
		if p < 2 || p > 8192 {
			t.Skip()
		}
		rel = ((rel % p) + p) % p
		sf := ComputeStepFlag(rel, p)
		if sf.Step < 1 || sf.Step > p {
			t.Fatalf("step %d out of range for p=%d", sf.Step, p)
		}
		if sf.RecvOnly != (Extent(rel, p) == 1) {
			t.Fatalf("rel=%d p=%d: RecvOnly=%v but extent=%d", rel, p, sf.RecvOnly, Extent(rel, p))
		}
		if sf.RecvOnly {
			if sf.Step != Extent((rel+1)%p, p) {
				t.Fatalf("rel=%d p=%d: step %d != right extent %d", rel, p, sf.Step, Extent((rel+1)%p, p))
			}
		} else if sf.Step != Extent(rel, p) {
			t.Fatalf("rel=%d p=%d: step %d != own extent %d", rel, p, sf.Step, Extent(rel, p))
		}
	})
}

// FuzzBcastProgramsVerify runs the full broadcast verification (deadlock
// freedom, data validity, zero redundancy for the tuned ring, complete
// final coverage) on arbitrary (p, root, n).
func FuzzBcastProgramsVerify(f *testing.F) {
	f.Add(8, 0, 64)
	f.Add(10, 3, 100)
	f.Add(121, 7, 1000)
	f.Add(2, 1, 1)
	f.Fuzz(func(t *testing.T, p, root, n int) {
		if p < 1 || p > 200 || n < 0 || n > 1<<16 {
			t.Skip()
		}
		root = ((root % p) + p) % p
		opt := sched.Generate("bcast-opt", BcastOptOps, p, root, n, 0)
		res, err := sched.Verify(opt, "bcast")
		if err != nil {
			t.Fatalf("opt p=%d root=%d n=%d: %v", p, root, n, err)
		}
		if res.RedundantMessages != 0 {
			t.Fatalf("opt p=%d root=%d n=%d: %d redundant messages", p, root, n, res.RedundantMessages)
		}
		nat := sched.Generate("bcast-native", BcastNativeOps, p, root, n, 0)
		if _, err := sched.Verify(nat, "bcast"); err != nil {
			t.Fatalf("native p=%d root=%d n=%d: %v", p, root, n, err)
		}
		// For every n the opt broadcast sends no empty message, and its
		// ring delivers exactly what the ranks lack after the scatter.
		st := opt.Stats()
		if st.Messages != st.NonEmptyMessages || st.Bytes-ScatterTraffic(p, n).Bytes != missingBytes(p, n) {
			t.Fatalf("p=%d n=%d: opt traffic %+v, ring bytes want %d", p, n, st, missingBytes(p, n))
		}
		// With no empty chunk, the saving is Listing 1's closed form.
		if NewLayout(n, p).Count(p-1) > 0 && nat.Stats().Messages-opt.Stats().Messages != TunedSavedMessages(p) {
			t.Fatalf("p=%d n=%d: savings mismatch", p, n)
		}
	})
}

// FuzzChainBcastVerify covers the extension generator.
func FuzzChainBcastVerify(f *testing.F) {
	f.Add(5, 0, 1000, 128)
	f.Add(2, 1, 1, 1)
	f.Fuzz(func(t *testing.T, p, root, n, seg int) {
		if p < 1 || p > 64 || n < 0 || n > 1<<14 {
			t.Skip()
		}
		root = ((root % p) + p) % p
		pr := sched.Generate("chain-bcast", ChainOps, p, root, n, seg)
		if _, err := sched.Verify(pr, "bcast"); err != nil {
			t.Fatalf("p=%d root=%d n=%d seg=%d: %v", p, root, n, seg, err)
		}
	})
}
