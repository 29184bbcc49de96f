package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/tune"
)

// TestMain lets the soak coordinator re-exec this test binary as a rank
// process: os.Executable() is the test binary here, and a soak-child
// command line must run the tool, not the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "soak-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tool runs one bcast command line in-process.
func tool(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// mustRun runs a command line that has to succeed and returns its stdout.
func mustRun(t *testing.T, line string) string {
	t.Helper()
	status, out, errOut := tool(strings.Fields(line)...)
	if status != 0 {
		t.Fatalf("bcast %s: exit status %d\nstderr: %s\nstdout: %s", line, status, errOut, out)
	}
	return out
}

// rows parses the "bytes us/iter MB/s" rows of a bench section.
func rows(t *testing.T, out string) (sizes []int, us, mbps []float64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] == "bytes" {
			continue
		}
		n, err1 := strconv.Atoi(f[0])
		u, err2 := strconv.ParseFloat(f[1], 64)
		m, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("malformed bench row %q", line)
		}
		sizes, us, mbps = append(sizes, n), append(us, u), append(mbps, m)
	}
	return sizes, us, mbps
}

func TestEveryCommandHasARunner(t *testing.T) {
	for _, cmd := range cli.Commands {
		if runners[cmd.Name] == nil {
			t.Errorf("subcommand %q has no runner", cmd.Name)
		}
	}
	if len(runners) != len(cli.Commands) {
		t.Errorf("%d runners for %d subcommands", len(runners), len(cli.Commands))
	}
}

// TestExitStatus: help is 0, a bad command line is 2 and says why on
// stderr, a command that fails is 1. A tuning table whose rule names no
// registry row fails where it is loaded, naming the rule.
func TestExitStatus(t *testing.T) {
	typo := filepath.Join(t.TempDir(), "typo.json")
	err := tune.SaveTable(&tune.Table{Name: "typo", Rules: []tune.Rule{
		{Decision: tune.Decision{Algorithm: tune.RingOpt + "t"}},
	}}, typo)
	if err != nil {
		t.Fatal(err)
	}
	const unknown = `rule 0: unknown algorithm "scatter-ring-allgather-optt"`
	for _, tc := range []struct {
		line   string
		status int
		stderr string
	}{
		{"-h", 0, "subcommands:"},
		{"bench -h", 0, "-persistent"},
		{"frobnicate", 2, `unknown subcommand "frobnicate"`},
		{"bench -frobnicate", 2, "flag provided but not defined: -frobnicate"},
		{"tune engine -iters 5", 2, "flag provided but not defined: -iters"},
		{"bench -algo opt -seg 4096", 2, "cannot act on -algo opt"},
		{"soak -np 2 -procs 2 -drop 0.6 -dup 0.6 -reorder 0.6", 2, "their sum must not exceed 1"},
		{"spans /nonexistent/trace.json", 1, "no such file"},
		{"compare -tune-table /nonexistent/table.json", 1, "no such file"},
		{"bench -np 8 -algo smp -min 1024 -max 1024 -iters 1", 1, "cannot run"},
		{"bench -np 4 -min 1024 -max 1024 -iters 2 -tune-table " + typo, 1, unknown},
		{"count -np 4 -cores 2 -tune-table " + typo, 1, unknown},
		{"compare -np 4 -min 16384 -max 16384 -tune-table " + typo, 1, unknown},
	} {
		status, out, errOut := tool(strings.Fields(tc.line)...)
		if status != tc.status || !strings.Contains(errOut, tc.stderr) {
			t.Errorf("bcast %s: status %d, stderr %q; want %d and %q", tc.line, status, errOut, tc.status, tc.stderr)
		}
		if status != 0 && out != "" && (tc.status == 2 || tc.stderr == unknown) {
			t.Errorf("bcast %s: a rejected command line printed to stdout: %q", tc.line, out)
		}
	}
}

// TestBenchProtocol: the paper's protocol on a tiny world reports one
// row per doubling size with a positive time and bandwidth, per
// selection, and the provenance line CI greps for.
func TestBenchProtocol(t *testing.T) {
	out := mustRun(t, "bench -np 4 -min 2048 -max 4096 -iters 5")
	for _, label := range []string{"native", "opt"} {
		if !strings.Contains(out, "# user-level bcast benchmark: "+label+", np=4, iters=5, exec=goroutine, transport=chan") {
			t.Errorf("no section for %s:\n%s", label, out)
		}
	}
	sizes, us, mbps := rows(t, out)
	if len(sizes) != 4 || sizes[0] != 2048 || sizes[1] != 4096 {
		t.Fatalf("rows for sizes %v, want 2048, 4096 twice:\n%s", sizes, out)
	}
	for i := range sizes {
		if us[i] <= 0 || mbps[i] <= 0 {
			t.Errorf("row %d: %v us/iter, %v MB/s", i, us[i], mbps[i])
		}
	}
}

// TestBenchSelectionPaths drives the benchmark through a pinned segmented
// algorithm, the MPICH3 dispatch on a placement, and a tuning table.
func TestBenchSelectionPaths(t *testing.T) {
	mustRun(t, "bench -np 4 -algo chain -seg 256 -min 1024 -max 1024 -iters 2")
	mustRun(t, "bench -np 8 -cores 4 -algo smp-opt,auto -min 2048 -max 2048 -iters 2")
	if status, _, errOut := tool("bench", "-algo", "no-such-algorithm"); status != 2 || !strings.Contains(errOut, "unknown algorithm") {
		t.Errorf("unknown -algo: status %d, %s", status, errOut)
	}

	table := filepath.Join(t.TempDir(), "table.json")
	err := tune.SaveTable(&tune.Table{Name: "ring-everywhere", Rules: []tune.Rule{
		{Decision: tune.Decision{Algorithm: tune.RingOpt}},
	}}, table)
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, "bench -np 4 -tune-table "+table+" -min 1024 -max 1024 -iters 2")
	if !strings.Contains(out, `tune-table "ring-everywhere"`) {
		t.Errorf("the table is not in the provenance:\n%s", out)
	}
}

// TestBenchPersistentReadsTheRootsClock is the regression test for the
// persistent benchmark timing rank 0 whatever -root said: with the one
// loop, the elapsed time printed is the one the root recorded, so a
// non-zero root reports a non-zero time in both call styles.
func TestBenchPersistentReadsTheRootsClock(t *testing.T) {
	for _, style := range []string{"bench", "bench -persistent"} {
		out := mustRun(t, style+" -np 4 -root 3 -algo opt -min 4096 -max 4096 -iters 3")
		_, us, _ := rows(t, out)
		if len(us) != 1 || us[0] <= 0 {
			t.Errorf("%s -root 3: us/iter %v, want one positive time\n%s", style, us, out)
		}
	}
	if out := mustRun(t, "bench -persistent -np 4 -algo opt -min 4096 -max 4096 -iters 3"); !strings.Contains(out, "# persistent bcast benchmark: opt, np=4") {
		t.Errorf("persistent provenance line missing:\n%s", out)
	}
}

// TestPreservedSemantics: -min 0 still terminates (a single zero-byte
// row), and -warmup 0 still means no warm-up, not the measurer's default.
func TestPreservedSemantics(t *testing.T) {
	sizes, _, _ := rows(t, mustRun(t, "bench -np 2 -algo opt -min 0 -max 64 -iters 2"))
	if len(sizes) != 1 || sizes[0] != 0 {
		t.Errorf("-min 0 rows: %v, want the single zero-byte point", sizes)
	}
	out := mustRun(t, "tune engine -np 2 -min 1024 -max 1024 -warmup 0 -reps 1 -candidates mpich")
	if !strings.Contains(out, "warmup 0, reps 1") {
		t.Errorf("-warmup 0 is not in the table's provenance:\n%s", out)
	}
}

// TestObservabilityRoundTrip: -metrics prints the counters CI greps for,
// -timeline writes a trace the spans subcommand reads back.
func TestObservabilityRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	out := mustRun(t, "bench -exec pooled -np 8 -algo binomial -min 32768 -max 131072 -iters 2 -metrics -timeline "+trace)
	for _, want := range []string{"exec=pooled", "sends: eager=", "spans: recorded="} {
		if !strings.Contains(out, want) {
			t.Errorf("bench output lacks %q:\n%s", want, out)
		}
	}
	if ok, _ := regexp.MatchString(`sends: eager=[1-9][0-9]* rendezvous=[1-9]`, out); !ok {
		t.Errorf("a sweep across the eager limit must count both protocols:\n%s", out)
	}
	if out := mustRun(t, "spans "+trace); !strings.Contains(out, "bcast/binomial") {
		t.Errorf("span summary lacks the broadcast rows:\n%s", out)
	}
}

// TestTuneTablesRoundTrip is the CI autotune-smoke job in-process: the
// tables tune engine and tune sim emit validate and dispatch through
// bench, count and compare.
func TestTuneTablesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng, samples, sim := filepath.Join(dir, "eng.json"), filepath.Join(dir, "samples.json"), filepath.Join(dir, "sim.json")
	out := mustRun(t, "tune engine -np 4 -min 16384 -max 32768 -warmup 1 -reps 2 -placements blocked:2 -o "+eng+" -samples "+samples)
	if !strings.Contains(out, "# candidates measured") || !strings.Contains(out, "smp-opt") {
		t.Errorf("tune engine output:\n%s", out)
	}
	out = mustRun(t, "tune sim -np 8,16 -min 65536 -max 131072 -warm 1 -total 3 -o "+sim)
	if !strings.Contains(out, "# candidates measured") {
		t.Errorf("tune sim output:\n%s", out)
	}
	for path, substrate := range map[string]string{eng: "on the real engine (exec goroutine, transport chan, warmup 1, reps 2", sim: `on netsim model "hornet"`} {
		table, err := tune.LoadTable(path) // validates
		if err != nil {
			t.Fatal(err)
		}
		if len(table.Rules) == 0 || !strings.Contains(table.Description, substrate) {
			t.Errorf("%s: %d rules, description %q", path, len(table.Rules), table.Description)
		}
		if out := mustRun(t, "count -tune-table "+path+" -cores 2 -np 4"); !strings.Contains(out, "\n4 ") {
			t.Errorf("count -tune-table %s:\n%s", path, out)
		}
		mustRun(t, "bench -tune-table "+path+" -np 4 -cores 2 -min 16384 -max 16384 -iters 2")
		mustRun(t, "compare -tune-table "+path+" -np 4 -min 16384 -max 16384 -warm 1 -total 3 -placements blocked:2")
	}
	if data, err := os.ReadFile(samples); err != nil || !strings.Contains(string(data), `"algorithm": "smp-opt"`) {
		t.Errorf("sample log: %v", err)
	}
}

func TestCrossCheckSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("engine sweep")
	}
	out := mustRun(t, "crosscheck -np 4 -min 16384 -max 16384 -warmup 1 -reps 2 -candidates mpich -o "+os.DevNull)
	if !strings.Contains(out, "netsim (hornet) vs real-engine cross-check") || !strings.Contains(out, "cells agree") {
		t.Errorf("crosscheck output:\n%s", out)
	}
}

// TestRingMeasure: the paper's core claim through the real engine.
func TestRingMeasure(t *testing.T) {
	out := mustRun(t, "ring -np 8,10,129 -n 65536 -measure")
	for _, want := range []string{
		"8                56           44       12",
		"10               90           75       15",
		"8                56           44       OK",
		"10               90           75       OK",
		"skipped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ring output lacks %q:\n%s", want, out)
		}
	}
}

// TestSoak runs the multi-process soak with this test binary as the rank
// processes (see TestMain), clean and under injected loss.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	for _, line := range []string{"soak -np 4 -procs 2", "soak -np 4 -procs 2 -drop 0.1 -dup 0.02 -reorder 0.02 -seed 7"} {
		if out := mustRun(t, line); !strings.Contains(out, "SOAK PASS: 6 cases x np=4 across 2 processes") {
			t.Errorf("bcast %s:\n%s", line, out)
		}
	}
}

// afterProvenance drops the first line, the "#" provenance line that
// names the tool.
func afterProvenance(s string) string {
	_, rest, _ := strings.Cut(s, "\n")
	return rest
}

// TestOutputParity: the subcommands print what the tools they replaced
// printed. The goldens under testdata/ are the stdout of the five old
// binaries at the commit that deleted them; everything after the first
// provenance line must match byte for byte.
func TestOutputParity(t *testing.T) {
	golden := func(name string) string {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, tc := range []struct{ line, file string }{
		// transfercount -algo smp,smp-opt,opt -p 16,48 -cores 4
		{"count -algo smp,smp-opt,opt -np 16,48 -cores 4", "count_algos.golden"},
		// schedviz -p 10 -root 3 -algo tuned
		{"viz -np 10 -root 3 -algo opt", "viz_tuned.golden"},
		// bcastsim -fig counts,6a
		{"figs -fig counts,6a", "figs_counts_6a.golden"},
		// bcastsim -algo native,opt -np 16 -min 65536 -max 262144
		{"curves -algo native,opt -np 16 -min 65536 -max 262144", "curves.golden"},
	} {
		if got, want := afterProvenance(mustRun(t, tc.line)), afterProvenance(golden(tc.file)); got != want {
			t.Errorf("bcast %s differs from %s:\n--- got\n%s--- want\n%s", tc.line, tc.file, got, want)
		}
	}

	// bcastbench -list: the same rows, with the -candidates column
	// bcastsim -candidates list had spliced in before the summary.
	got := strings.Split(afterProvenance(mustRun(t, "algos")), "\n")
	want := strings.Split(afterProvenance(golden("algos_list.golden")), "\n")
	if len(got) != len(want) {
		t.Fatalf("algos lists %d rows, bcastbench -list listed %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != "" && (len(got[i]) < 77 || got[i][:66]+got[i][77:] != want[i]) {
			t.Errorf("algos row %d:\n got %q\nwant %q plus the candidates column", i, got[i], want[i])
		}
	}

	// bcastsim -autotune -candidates mpich -np 8,16 -min 16384 -max 262144:
	// the candidates, the winners and the rules; the description now
	// carries the measurer's own provenance.
	noDescription := func(s string) string {
		return regexp.MustCompile(`(?m)^\s*"description":.*\n`).ReplaceAllString(s, "")
	}
	if got, want := noDescription(mustRun(t, "tune sim -candidates mpich -np 8,16 -min 16384 -max 262144")),
		noDescription(golden("tune_sim_mpich.golden")); got != want {
		t.Errorf("tune sim differs from tune_sim_mpich.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
