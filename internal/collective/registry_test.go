package collective

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestRegistryComplete asserts every broadcast of the paper's family is
// registered under its stable name.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		tune.Binomial, tune.Chain, tune.ScatterRdb,
		tune.RingNative, tune.RingOpt, tune.RingSeg, tune.RingOptSeg,
		tune.RingSegNB, tune.RingOptSegNB,
		tune.SMP, tune.SMPOpt,
	}
	for _, name := range want {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("algorithm %q not registered (have %v)", name, Names())
		}
		if r.Run == nil {
			t.Errorf("algorithm %q has nil Run", name)
		}
		if r.Summary == "" {
			t.Errorf("algorithm %q has no summary", name)
		}
	}
	if got := len(Names()); got != len(want) {
		t.Errorf("registry has %d algorithms, want %d: %v", got, len(want), Names())
	}
}

// TestRegistryCapabilities asserts every registered algorithm's
// capability predicate matches its documented constraints.
func TestRegistryCapabilities(t *testing.T) {
	single := func(p, n int) tune.Env { return tune.Env{Bytes: n, Procs: p, NumNodes: 1} }
	multi := func(p, n int) tune.Env { return tune.Env{Bytes: n, Procs: p, NumNodes: 2} }

	cases := []struct {
		algo  string
		env   tune.Env
		match bool
	}{
		// Binomial: no constraints.
		{tune.Binomial, single(1, 0), true},
		{tune.Binomial, single(129, 1<<25), true},
		{tune.Binomial, multi(7, 64), true},
		// Scatter-rdb: power-of-two communicators only.
		{tune.ScatterRdb, single(8, 1<<16), true},
		{tune.ScatterRdb, single(256, 1<<16), true},
		{tune.ScatterRdb, single(10, 1<<16), false},
		{tune.ScatterRdb, single(129, 1<<16), false},
		{tune.ScatterRdb, multi(129, 1<<16), false},
		// The rings and the chain: any communicator, any placement.
		{tune.RingNative, single(1, 0), true},
		{tune.RingNative, multi(129, 1<<20), true},
		{tune.RingOpt, single(10, 1<<20), true},
		{tune.RingOpt, multi(256, 1<<25), true},
		{tune.Chain, single(3, 1<<10), true},
		{tune.Chain, multi(64, 1<<22), true},
		// SMP variants: meaningful only across nodes.
		{tune.SMP, single(16, 1<<20), false},
		{tune.SMP, multi(16, 1<<20), true},
		{tune.SMPOpt, single(16, 1<<20), false},
		{tune.SMPOpt, multi(16, 1<<20), true},
	}
	for _, tc := range cases {
		r, ok := Lookup(tc.algo)
		if !ok {
			t.Fatalf("algorithm %q not registered", tc.algo)
		}
		if got := r.Caps.Match(tc.env); got != tc.match {
			t.Errorf("%s.Caps.Match(%+v) = %v want %v", tc.algo, tc.env, got, tc.match)
		}
	}

	// Structural expectations of the documented constraints.
	if r, _ := Lookup(tune.ScatterRdb); !r.Caps.Pow2Only {
		t.Error("scatter-rdb must be Pow2Only")
	}
	for _, name := range []string{tune.Chain, tune.RingSeg, tune.RingOptSeg} {
		if r, _ := Lookup(name); !r.Caps.Segmented {
			t.Errorf("%s must be Segmented", name)
		}
	}
	for _, name := range []string{tune.SMP, tune.SMPOpt} {
		if r, _ := Lookup(name); !r.Caps.MultiNodeOnly {
			t.Errorf("%s must be MultiNodeOnly", name)
		}
	}
}

// TestRunDecisionExecutesEveryAlgorithm broadcasts through RunDecision
// for every registered algorithm in an environment its capabilities
// admit, checking payload delivery on all ranks.
func TestRunDecisionExecutesEveryAlgorithm(t *testing.T) {
	const p, n, root = 8, 4096, 3
	topo := topology.Blocked(p, 4) // 2 nodes: admits the SMP variants
	want := pattern(n)
	for _, r := range Algorithms() {
		d := tune.Decision{Algorithm: r.Name}
		if r.Caps.Segmented {
			d.SegSize = 512
		}
		err := engine.RunWith(engine.Options{NP: p, Topology: topo}, func(c mpi.Comm) error {
			buf := make([]byte, n)
			if c.Rank() == root {
				copy(buf, want)
			}
			if err := RunDecision(c, buf, root, d); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d: buffer mismatch", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Errorf("RunDecision(%q): %v", r.Name, err)
		}
	}
}

// TestRunDecisionRejects covers the failure modes a bad tuning table can
// trigger: unknown names and capability mismatches.
func TestRunDecisionRejects(t *testing.T) {
	err := engine.Run(6, func(c mpi.Comm) error {
		if err := RunDecision(c, make([]byte, 64), 0, tune.Decision{Algorithm: "no-such-bcast"}); err == nil ||
			!strings.Contains(err.Error(), "unknown algorithm") {
			return fmt.Errorf("unknown algorithm: got %v", err)
		}
		// scatter-rdb on 6 ranks violates Pow2Only.
		if err := RunDecision(c, make([]byte, 64), 0, tune.Decision{Algorithm: tune.ScatterRdb}); err == nil ||
			!strings.Contains(err.Error(), "cannot run") {
			return fmt.Errorf("capability mismatch: got %v", err)
		}
		// smp on a single node violates MultiNodeOnly.
		if err := RunDecision(c, make([]byte, 64), 0, tune.Decision{Algorithm: tune.SMP}); err == nil ||
			!strings.Contains(err.Error(), "cannot run") {
			return fmt.Errorf("smp on one node: got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastWithTableTuner drives BcastWith through a hand-written tuning
// table, checking the table's decision (not the default dispatch) runs.
func TestBcastWithTableTuner(t *testing.T) {
	table := &tune.Table{
		Name: "test",
		Rules: []tune.Rule{
			// Everything on 5 ranks goes through the chain with 128-byte
			// segments — a selection MPICH3's dispatch would never make.
			{MinProcs: 5, MaxProcs: 5, Decision: tune.Decision{Algorithm: tune.Chain, SegSize: 128}},
		},
	}
	tuner := tune.TableTuner{Table: table, Fallback: tune.MPICH3{}}
	const n, root = 2048, 1
	want := pattern(n)
	err := engine.Run(5, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == root {
			copy(buf, want)
		}
		if err := BcastWith(c, buf, root, tuner); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRejects covers registry hygiene: empty names, rows with no
// algorithm, rows that supply what Register derives, duplicates.
func TestRegisterRejects(t *testing.T) {
	if err := Register(Registration{Name: ""}); err == nil {
		t.Error("empty name must fail")
	}
	if err := Register(Registration{Name: "x"}); err == nil {
		t.Error("neither Ops nor Run must fail")
	}
	dummy := func(mpi.Comm, []byte, int, int) error { return nil }
	if err := Register(Registration{Name: "x", Ops: core.BinomialOps, Run: dummy}); err == nil {
		t.Error("Ops with a hand-paired Run must fail")
	}
	if err := Register(Registration{Name: "x", Run: dummy, Overlap: true}); err == nil {
		t.Error("Overlap without Ops must fail")
	}
	if err := Register(Registration{Name: tune.Binomial, Run: dummy}); err == nil {
		t.Error("duplicate name must fail")
	}
	if _, ok := Lookup("x"); ok {
		t.Error("a rejected row must not be registered")
	}
}

// TestStaticRowsDeriveRunAndProgram: a row that supplies Ops gets both
// derived functions, and the derived Program refuses rank counts the
// row's capabilities exclude instead of panicking in the emitter.
func TestStaticRowsDeriveRunAndProgram(t *testing.T) {
	for _, r := range Algorithms() {
		if (r.Ops != nil) != (r.Program != nil) || r.Run == nil {
			t.Errorf("%s: Ops=%v Program=%v Run=%v", r.Name, r.Ops != nil, r.Program != nil, r.Run != nil)
		}
	}
	rdb, _ := Lookup(tune.ScatterRdb)
	if _, err := rdb.Program(6, 0, 64, 0); err == nil {
		t.Error("scatter-rdb schedule for 6 ranks must fail")
	}
	if pr, err := rdb.Program(8, 3, 64, 0); err != nil || pr.P != 8 || pr.Root != 3 || pr.N != 64 {
		t.Errorf("scatter-rdb schedule for 8 ranks: %+v, %v", pr, err)
	}
}

// TestCandidatesCoverStaticAlgorithms asserts the auto-tuner sees exactly
// the schedule-static registry entries.
func TestCandidatesCoverStaticAlgorithms(t *testing.T) {
	got := map[string]bool{}
	for _, c := range Candidates() {
		got[c.Name] = true
		if c.Program == nil {
			t.Errorf("candidate %q has nil Program", c.Name)
		}
		if c.Applies == nil {
			t.Errorf("candidate %q has nil Applies", c.Name)
		}
	}
	for _, r := range Algorithms() {
		if (r.Program != nil) != got[r.Name] {
			t.Errorf("candidate coverage mismatch for %q (static=%v, candidate=%v)",
				r.Name, r.Program != nil, got[r.Name])
		}
	}
	// The Split-based SMP broadcasts have no static schedule.
	if got[tune.SMP] || got[tune.SMPOpt] {
		t.Error("smp variants must not be auto-tuner candidates")
	}
}

// TestIndexOf pins the helper behind bcastSMP's local-root resolution,
// including the -1 miss the defensive guard in bcastSMP now catches
// (topology.Map is self-consistent today, so the guard is unreachable
// through the public API; the helper's miss behavior is what it relies
// on).
func TestIndexOf(t *testing.T) {
	xs := []int{3, 7, 11}
	for i, v := range xs {
		if got := indexOf(xs, v); got != i {
			t.Errorf("indexOf(%v, %d) = %d want %d", xs, v, got, i)
		}
	}
	if got := indexOf(xs, 5); got != -1 {
		t.Errorf("indexOf miss = %d want -1", got)
	}
	if got := indexOf(nil, 0); got != -1 {
		t.Errorf("indexOf(nil) = %d want -1", got)
	}
}

// TestCapabilityTags pins the CLI flag labels the tools print next to
// registry names.
func TestCapabilityTags(t *testing.T) {
	cases := []struct {
		caps Capabilities
		want string
	}{
		{Capabilities{}, ""},
		{Capabilities{Segmented: true}, "segmented"},
		{Capabilities{Pow2Only: true}, "pow2-only"},
		{Capabilities{MultiNodeOnly: true}, "multi-node-only"},
		{Capabilities{MinProcs: 2, Pow2Only: true, Segmented: true}, "min-procs=2 pow2-only segmented"},
	}
	for _, tc := range cases {
		got := ""
		for i, tag := range tc.caps.Tags() {
			if i > 0 {
				got += " "
			}
			got += tag
		}
		if got != tc.want {
			t.Errorf("Tags(%+v) = %q, want %q", tc.caps, got, tc.want)
		}
	}
}
