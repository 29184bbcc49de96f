package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

func TestStepFlagPaperP8(t *testing.T) {
	// Figure 4 narrative, P = 8:
	//   root 0 never receives (send-only, step 8);
	//   rank 7 never sends (receive-only, step 8);
	//   rank 4 stops receiving from rank 3 after step 4 (send-only, step 4);
	//   rank 3 stops sending to rank 4 after step 4 (receive-only, step 4);
	//   ranks 2 and 6 are send-only with step 2; 1 and 5 receive-only, step 2.
	wants := map[int]StepFlag{
		0: {8, false},
		1: {2, true},
		2: {2, false},
		3: {4, true},
		4: {4, false},
		5: {2, true},
		6: {2, false},
		7: {8, true},
	}
	for rel, want := range wants {
		if got := ComputeStepFlag(rel, 8); got != want {
			t.Errorf("ComputeStepFlag(%d, 8) = %+v want %+v", rel, got, want)
		}
	}
}

func TestStepFlagPaperP10(t *testing.T) {
	// Figure 5 narrative, P = 10: rank 4 stops receiving after the sixth
	// step (step = 4 -> sendrecv while i <= 10-4 = 6); rank 8's subtree is
	// clamped at the boundary (step = 2); rank 9 is receive-only for all
	// steps (step = 10).
	wants := map[int]StepFlag{
		0: {10, false},
		1: {2, true},
		2: {2, false},
		3: {4, true},
		4: {4, false},
		5: {2, true},
		6: {2, false},
		7: {2, true},
		8: {2, false},
		9: {10, true},
	}
	for rel, want := range wants {
		if got := ComputeStepFlag(rel, 10); got != want {
			t.Errorf("ComputeStepFlag(%d, 10) = %+v want %+v", rel, got, want)
		}
	}
}

// TestStepFlagOwnershipTheorems ties Listing 1's mask loop to the scatter
// ownership semantics:
//
//	RecvOnly(rel)        <=> Extent(rel) == 1 (scatter-tree leaves);
//	send-only rank:  Step == Extent(rel)          (its own subtree size);
//	recv-only rank:  Step == Extent(rel+1 mod p)  (its right neighbour's).
func TestStepFlagOwnershipTheorems(t *testing.T) {
	for p := 2; p <= 300; p++ {
		for rel := 0; rel < p; rel++ {
			sf := ComputeStepFlag(rel, p)
			leaf := Extent(rel, p) == 1
			if sf.RecvOnly != leaf {
				t.Fatalf("p=%d rel=%d: RecvOnly=%v but leaf=%v", p, rel, sf.RecvOnly, leaf)
			}
			if sf.RecvOnly {
				right := (rel + 1) % p
				if sf.Step != Extent(right, p) {
					t.Fatalf("p=%d rel=%d: step=%d want right extent %d", p, rel, sf.Step, Extent(right, p))
				}
			} else {
				if sf.Step != Extent(rel, p) {
					t.Fatalf("p=%d rel=%d: step=%d want own extent %d", p, rel, sf.Step, Extent(rel, p))
				}
			}
		}
	}
}

// TestStepFlagPairing: a rank that is receive-only with step s >= 2 (i.e.
// it actually skips s-1 sends) always has a send-only right neighbour with
// the same step s — the property that makes the degenerate sends and
// receives pair up without deadlock. Step 1 carries no degenerate
// iterations (the rank sendrecvs in every step), so no pairing constraint
// applies; this happens at communicator boundaries, e.g. rel = p-2 when
// p-1 is even (its right neighbour p-1 is a clamped subtree of extent 1).
func TestStepFlagPairing(t *testing.T) {
	f := func(pRaw uint16) bool {
		p := int(pRaw)%512 + 2
		for rel := 0; rel < p; rel++ {
			sf := ComputeStepFlag(rel, p)
			if sf.RecvOnly && sf.Step >= 2 {
				right := (rel + 1) % p
				rsf := ComputeStepFlag(right, p)
				if rsf.RecvOnly || rsf.Step != sf.Step {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStepFlagStepOneBoundary exercises the clamped boundary case
// explicitly: p = 121, rel = 119 is receive-only with step 1 (its right
// neighbour 120 is a boundary-clamped subtree of extent 1), and rank 120
// is receive-only for the whole ring because its right neighbour is the
// root.
func TestStepFlagStepOneBoundary(t *testing.T) {
	if sf := ComputeStepFlag(119, 121); !sf.RecvOnly || sf.Step != 1 {
		t.Fatalf("ComputeStepFlag(119,121) = %+v want {1 true}", sf)
	}
	if sf := ComputeStepFlag(120, 121); !sf.RecvOnly || sf.Step != 121 {
		t.Fatalf("ComputeStepFlag(120,121) = %+v want {121 true}", sf)
	}
	// Step 1 means zero degenerate iterations: the elided ring keeps
	// every one of rank 119's exchanges whole.
	pr := sched.Generate("bcast-opt", BcastOptOps, 121, 0, 121, 0)
	for _, op := range pr.OpsOf(119) {
		if op.Step >= 1 && op.Kind != sched.OpSendrecv {
			t.Fatalf("step-1 rank must have no degenerate steps, got %s at step %d", op, op.Step)
		}
	}
}

func TestStepFlagRootAndLeftOfRoot(t *testing.T) {
	for p := 2; p <= 64; p++ {
		if sf := ComputeStepFlag(0, p); sf.RecvOnly || sf.Step != p {
			t.Fatalf("p=%d: root step/flag = %+v", p, sf)
		}
		if sf := ComputeStepFlag(p-1, p); !sf.RecvOnly || sf.Step != p {
			t.Fatalf("p=%d: rank p-1 step/flag = %+v", p, sf)
		}
	}
}

func TestStepFlagDegenerateComm(t *testing.T) {
	sf := ComputeStepFlag(0, 1)
	if sf != (StepFlag{Step: 1}) {
		t.Fatalf("p=1: %+v", sf)
	}
}
