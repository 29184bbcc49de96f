package collective

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestRegistryComplete asserts every broadcast of the paper's family is
// registered under its stable name, and that no two rows share a name
// (a duplicate would silently overwrite a row in the index).
func TestRegistryComplete(t *testing.T) {
	want := []string{
		tune.Binomial, tune.Chain, tune.ScatterRdb,
		tune.RingNative, tune.RingOpt, tune.RingSeg, tune.RingOptSeg,
		tune.SMP, tune.SMPOpt,
	}
	for _, name := range want {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("algorithm %q not registered (have %v)", name, Names())
		}
		if (r.Ops == nil) == (r.TopoOps == nil) {
			t.Errorf("algorithm %q: Ops=%v TopoOps=%v, want exactly one emitter", name, r.Ops != nil, r.TopoOps != nil)
		}
		if r.Summary == "" {
			t.Errorf("algorithm %q has no summary", name)
		}
	}
	if got := len(Names()); got != len(want) || got != len(rows) {
		t.Errorf("registry has %d algorithms from %d rows, want %d: %v", got, len(rows), len(want), Names())
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
		t.Run(r.Name, func(t *testing.T) {
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
		})
	}
}

// TestLoadTable: a table whose every rule names a registry row loads as
// tune.LoadTable reads it; one rule naming no row fails the load,
// naming the rule and the registered algorithms; and what tune.LoadTable
// refuses stays refused.
func TestLoadTable(t *testing.T) {
	save := func(t *testing.T, table *tune.Table) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "table.json")
		if err := tune.SaveTable(table, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	everyRow := &tune.Table{Name: "every-row"}
	for i, name := range Names() {
		everyRow.Rules = append(everyRow.Rules, tune.Rule{MinProcs: i + 1, MaxProcs: i + 1, Decision: tune.Decision{Algorithm: name}})
	}

	t.Run("every-row", func(t *testing.T) {
		got, err := LoadTable(save(t, everyRow))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, everyRow) {
			t.Errorf("loaded %+v, saved %+v", got, everyRow)
		}
	})
	t.Run("unknown-algorithm", func(t *testing.T) {
		typo := *everyRow
		typo.Rules = append([]tune.Rule(nil), everyRow.Rules...)
		typo.Rules[2].Decision.Algorithm = tune.RingOpt + "t"
		_, err := LoadTable(save(t, &typo))
		if err == nil {
			t.Fatal("a rule naming no registry row loaded")
		}
		for _, want := range []string{"rule 2", fmt.Sprintf("%q", tune.RingOpt+"t"), fmt.Sprint(Names())} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		}
	})
	t.Run("malformed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "table.json")
		if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTable(path); err == nil || !strings.Contains(err.Error(), "tune: parse table") {
			t.Errorf("bad JSON: got %v, want tune's parse error", err)
		}
		if _, err := LoadTable(filepath.Join(t.TempDir(), "missing.json")); err == nil {
			t.Error("missing file loaded")
		}
	})
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

// TestBroadcastWithTableTuner drives Broadcast through a hand-written
// tuning table, checking the table's decision (not the default dispatch)
// runs.
func TestBroadcastWithTableTuner(t *testing.T) {
	table := &tune.Table{
		Name: "test",
		Rules: []tune.Rule{
			// Everything on 5 ranks goes through the chain with 128-byte
			// segments — a selection MPICH3's dispatch would never make.
			{MinProcs: 5, MaxProcs: 5, Decision: tune.Decision{Algorithm: tune.Chain, SegSize: 128}},
		},
	}
	o := Options{Tuner: tune.TableTuner{Table: table, Fallback: tune.MPICH3{}}}
	const n, root = 2048, 1
	got := measureBcast(t, with(o), engine.Options{NP: 5}, root, n)
	if want := sched.Generate("chain-bcast", core.ChainOps, 5, root, n, 128).Stats(); got.Total.Messages != int64(want.Messages) || got.ByTag[core.TagChain].Messages != int64(want.Messages) {
		t.Fatalf("traced %s, want the chain's %d messages", got, want.Messages)
	}
	runBcast(t, "table-tuner", with(o), engine.Options{NP: 5}, root, n)
}

// TestEveryRowHasASchedule: Schedule serves every row on a topology its
// capabilities admit and refuses the others by name instead of panicking
// in the emitter; the derived, topology-less Program exists exactly on
// the rows whose pattern does not depend on the node map.
func TestEveryRowHasASchedule(t *testing.T) {
	two := topology.Blocked(8, 4)
	for _, r := range Algorithms() {
		if (r.Ops != nil) != (r.Program != nil) {
			t.Errorf("%s: Ops=%v Program=%v", r.Name, r.Ops != nil, r.Program != nil)
		}
		pr, err := r.Schedule(two, 3, 64, 0)
		if err != nil || pr.P != 8 || pr.Root != 3 || pr.N != 64 || pr.Name != r.Name {
			t.Errorf("%s schedule for 8 ranks on 2 nodes: %+v, %v", r.Name, pr, err)
		}
	}
	rdb, _ := Lookup(tune.ScatterRdb)
	if _, err := rdb.Program(6, 0, 64, 0); err == nil {
		t.Error("scatter-rdb Program for 6 ranks must fail")
	}
	if _, err := rdb.Schedule(topology.SingleNode(6), 0, 64, 0); err == nil {
		t.Error("scatter-rdb schedule for 6 ranks must fail")
	}
	if pr, err := rdb.Program(8, 3, 64, 0); err != nil || pr.P != 8 || pr.Root != 3 || pr.N != 64 {
		t.Errorf("scatter-rdb Program for 8 ranks: %+v, %v", pr, err)
	}
	if _, err := Schedule(tune.Decision{Algorithm: tune.SMPOpt}, topology.SingleNode(8), 0, 64); err == nil ||
		!strings.Contains(err.Error(), "multi-node-only") {
		t.Errorf("smp-opt schedule on one node: got %v, want the multi-node-only refusal", err)
	}
	if _, err := Schedule(tune.Decision{Algorithm: "bogus"}, two, 0, 64); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

// TestCandidatesCoverTheRegistry asserts the auto-tuner sees every row,
// the SMP broadcasts included, each with its applicability predicate.
func TestCandidatesCoverTheRegistry(t *testing.T) {
	var got []string
	for _, c := range Candidates() {
		got = append(got, c.Name)
		if c.Applies == nil {
			t.Errorf("candidate %q has no Applies", c.Name)
		}
	}
	if want := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("candidates %v, registry %v", got, want)
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
		{Capabilities{Pow2Only: true, Segmented: true}, "pow2-only segmented"},
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
