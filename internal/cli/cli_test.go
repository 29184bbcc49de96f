package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/bcast"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/tune"
)

func parse(t *testing.T, line string) (*Command, *Config, error) {
	t.Helper()
	return Parse(strings.Fields(line), io.Discard)
}

func blocked(n int) tune.Placement {
	return tune.Placement{Kind: topology.KindBlocked, CoresPerNode: n}
}

// TestParseYieldsTypedConfig: a command line resolves to its subcommand
// and to the typed values the rest of the module consumes.
func TestParseYieldsTypedConfig(t *testing.T) {
	for _, tc := range []struct {
		line  string
		cmd   string
		check func(t *testing.T, c *Config)
	}{
		{"bench", "bench", func(t *testing.T, c *Config) {
			sels, err := c.Selections()
			if err != nil || len(sels) != 2 || sels[0].Algorithm != tune.RingNative || sels[1].Algorithm != tune.RingOpt {
				t.Errorf("default selections = %+v, %v; want native, opt", sels, err)
			}
			if !reflect.DeepEqual(c.NP, []int{8}) || c.Iters != 100 || c.Persistent || c.Spans != 0 {
				t.Errorf("defaults: %+v", c)
			}
			if got := c.Sizes(); len(got) != 9 || got[0] != 16<<10 || got[8] != 4<<20 {
				t.Errorf("sizes = %v", got)
			}
		}},
		{"bench -persistent -np 4,6 -root 3 -cores 2 -exec pooled -workers 1 -algo scatter-ring-allgather-opt-seg -seg 4096 -eager -1 -spans 16", "bench",
			func(t *testing.T, c *Config) {
				sels, _ := c.Selections()
				if !c.Persistent || len(sels) != 1 || sels[0].SegSize != 4096 || sels[0].Label != "scatter-ring-allgather-opt-seg" {
					t.Fatalf("config %+v, selections %+v", c, sels)
				}
				cl, err := bcast.NewCluster(context.Background(), c.ClusterOptions(6, sels[0])...)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				d := cl.Decision(1 << 20)
				if cl.NP() != 6 || cl.NumNodes() != 3 || cl.Executor() != "pooled(1)" || cl.Transport() != "chan" ||
					d.Algorithm != tune.RingOptSeg || d.SegSize != 4096 {
					t.Errorf("cluster np=%d nodes=%d exec=%s transport=%s decision=%+v", cl.NP(), cl.NumNodes(), cl.Executor(), cl.Transport(), d)
				}
			}},
		{"bench -algo auto-opt -timeline t.json -np 9", "bench", func(t *testing.T, c *Config) {
			sels, _ := c.Selections()
			cl, err := bcast.NewCluster(context.Background(), c.ClusterOptions(9, sels[0])...)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if got := cl.Decision(12288).Algorithm; got != tune.RingOpt || c.Spans != 4096 {
				t.Errorf("auto-opt at (9, 12288) decides %q, spans %d; want the tuned ring, 4096", got, c.Spans)
			}
		}},
		{"tune engine -np 4,8 -min 1024 -max 4096 -segs 512,1024 -placements blocked:2,rr:2 -candidates mpich -warmup 0 -reps 3 -stat min -root 1 -eager 64 -exec pooled -workers 2 -transport udp -samples s.json -o t.json",
			"tune engine", func(t *testing.T, c *Config) {
				m := c.EngineMeasurer()
				if m.Log == nil {
					t.Error("-samples must attach a sample log")
				}
				m.Log = nil
				want := measure.EngineMeasurer{Warmup: -1, Reps: 3, Root: 1, EagerLimit: 64, Stat: measure.StatMin,
					Executor: engine.Pooled, MaxWorkers: 2, Transport: "udp"}
				if m != want {
					t.Errorf("measurer = %+v\nwant       %+v", m, want)
				}
				sweep := tune.SweepConfig{Procs: []int{4, 8}, Sizes: []int{1024, 2048, 4096}, SegSizes: []int{512, 1024},
					Placements: []tune.Placement{blocked(2), {Kind: topology.KindRoundRobin, CoresPerNode: 2}}}
				if got := c.Sweep(); !reflect.DeepEqual(got, sweep) {
					t.Errorf("sweep = %+v\nwant    %+v", got, sweep)
				}
				if got := len(c.Candidates()); got != 6 || c.Out != "t.json" {
					t.Errorf("%d mpich candidates, -o %q", got, c.Out)
				}
			}},
		{"tune engine", "tune engine", func(t *testing.T, c *Config) {
			if m := c.EngineMeasurer(); m.Warmup != measure.DefaultWarmup || m.Reps != measure.DefaultReps || m.Log != nil {
				t.Errorf("default protocol: %+v", m)
			}
			if got := len(c.Candidates()); got < 9 {
				t.Errorf("the default candidate set is the whole registry, got %d", got)
			}
		}},
		{"tune sim -model laki -nocontention -warm 1 -total 3", "tune sim", func(t *testing.T, c *Config) {
			sim := c.SimConfig()
			if sim.Model.Name != "laki" || !sim.Model.NoContention || sim.Place != blocked(topology.LakiCoresPerNode) || sim.Warm != 1 || sim.Total != 3 {
				t.Errorf("sim = %+v (model %+v)", sim, sim.Model)
			}
		}},
		{"crosscheck -np 4 -model hornet -reps 2", "crosscheck", func(t *testing.T, c *Config) {
			if sim := c.SimConfig(); sim.Model.Name != "hornet" || sim.Place != blocked(topology.HornetCoresPerNode) {
				t.Errorf("sim = %+v", sim)
			}
		}},
		{"figs -fig counts,6a -cores 4", "figs", func(t *testing.T, c *Config) {
			if !reflect.DeepEqual(c.Figs, []string{"counts", "6a"}) || c.SimConfig().Place != blocked(4) {
				t.Errorf("figs %v on %v", c.Figs, c.SimConfig().Place)
			}
		}},
		{"figs", "figs", func(t *testing.T, c *Config) {
			if !reflect.DeepEqual(c.Figs, allFigs) {
				t.Errorf("default figs %v", c.Figs)
			}
		}},
		{"curves -algo smp-opt,opt,auto -np 48", "curves", func(t *testing.T, c *Config) {
			sels, _ := c.Selections()
			if len(sels) != 3 || sels[0].Label != "smp-opt" || sels[1].Algorithm != tune.RingOpt || sels[2].Tuner != (tune.MPICH3{}) {
				t.Errorf("selections %+v", sels)
			}
		}},
		{"compare -tune-table t.json -placements single", "compare", func(t *testing.T, c *Config) {
			if c.Table != "t.json" || len(c.Placements) != 1 {
				t.Errorf("%+v", c)
			}
		}},
		{"count -tune-table missing.json -cores 2 -seg 1024", "count", func(t *testing.T, c *Config) {
			if c.Placement() != blocked(2) {
				t.Errorf("placement %v", c.Placement())
			}
			if _, err := c.Selections(); err == nil {
				t.Error("a missing table must fail when it is loaded")
			}
		}},
		{"count", "count", func(t *testing.T, c *Config) {
			if c.Placement() != (tune.Placement{}) || c.N != 1<<20 {
				t.Errorf("%+v", c)
			}
		}},
		{"ring -np 8,10 -n 65536 -measure", "ring", func(t *testing.T, c *Config) {
			if !c.Measure || c.N != 65536 {
				t.Errorf("%+v", c)
			}
		}},
		{"viz -np 10 -root 3 -algo opt", "viz", nil},
		{"spans trace.json", "spans", func(t *testing.T, c *Config) {
			if !reflect.DeepEqual(c.Args, []string{"trace.json"}) {
				t.Errorf("args %v", c.Args)
			}
		}},
		{"soak -np 8 -procs 4", "soak", func(t *testing.T, c *Config) {
			if c.Faults() != nil {
				t.Error("no fault flag, no injector")
			}
		}},
		{"soak-child -np 8 -coord 127.0.0.1:9 -ranks 0,1 -drop 0.2 -seed 7 -metrics", "soak-child", func(t *testing.T, c *Config) {
			f := c.Faults()
			if f == nil || f.Drop != 0.2 || f.Seed != 7 || !reflect.DeepEqual(c.Ranks, []int{0, 1}) || !c.Metrics {
				t.Errorf("faults %+v, config %+v", f, c)
			}
		}},
		{"algos", "algos", nil},
	} {
		cmd, cfg, err := parse(t, tc.line)
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
			continue
		}
		if cmd.Name != tc.cmd {
			t.Errorf("%q resolved to %q, want %q", tc.line, cmd.Name, tc.cmd)
		}
		if tc.check != nil {
			tc.check(t, cfg)
		}
	}
}

// TestParseRejects: every bad command line is a usage error naming what
// is wrong. The first block is the flag/mode matrix the old bcastbench
// kept by hand — each pair now fails because the flag does not exist on
// that subcommand.
func TestParseRejects(t *testing.T) {
	undefined := "flag provided but not defined"
	for line, want := range map[string]string{
		// Tuning flags on the benchmark (9).
		"bench -segs 8192":         undefined,
		"bench -placements single": undefined,
		"bench -reps 3":            undefined,
		"bench -warmup 1":          undefined,
		"bench -o t.json":          undefined,
		"bench -samples s.json":    undefined,
		"bench -candidates mpich":  undefined,
		"bench -stat min":          undefined,
		"bench -model laki":        undefined,
		// Benchmark flags on the tuner (8).
		"tune engine -seg 8192":        undefined,
		"tune engine -cores 2":         undefined,
		"tune engine -iters 5":         undefined,
		"tune engine -tune-table t":    undefined,
		"tune engine -algo opt":        undefined,
		"tune engine -metrics":         undefined,
		"tune engine -timeline t.json": undefined,
		"tune engine -spans 8":         undefined,
		// The old one-off checks.
		"tune engine -persistent":   undefined,
		"tune engine -model laki":   undefined,
		"crosscheck -transport udp": undefined,
		"crosscheck -persistent":    undefined,
		// The old mode flags are gone.
		"bench -autotune":           undefined,
		"bench -crosscheck":         undefined,
		"bench -list":               undefined,
		"bench -spans-summary t":    undefined,
		"soak -child":               undefined,
		"count -p 8":                undefined,
		"tune sim -candidates list": "want all|mpich",
		// Flags the old tools dropped silently.
		"figs -seg 4096":                 undefined,
		"bench -algo opt -seg 4096":      "-seg 4096 cannot act on -algo opt",
		"bench -algo auto -seg 4096":     "cannot act on -algo auto",
		"curves -algo binomial -seg 1":   "scatter-ring-allgather-opt-seg",
		"ring -cores 4":                  undefined,
		"ring -algo opt":                 undefined,
		"count -measure":                 undefined,
		"tune sim -cores 4":              undefined,
		"compare -tune-table t -cores 4": undefined,
		"bench -algo opt -tune-table t":  "mutually exclusive",
		// Values.
		"bench -algo bogus":                   "unknown algorithm",
		"bench -algo opt,,auto":               "empty algorithm name",
		"bench -np 0":                         "bad value",
		"bench -np 4 -root 4":                 "-root 4 is not a rank of -np 4",
		"bench -workers 2":                    "-workers requires -exec pooled",
		"bench -exec pooled -workers -1":      "-workers must be non-negative",
		"bench -exec threads":                 "unknown executor",
		"bench -transport tcp":                "want chan|udp",
		"bench -min 8 -max 4":                 "need -min <= -max",
		"bench -min -1":                       "-min must be non-negative",
		"bench -iters 0":                      "-iters must be positive",
		"bench -spans -1":                     "-spans must be non-negative",
		"bench -np 4,8 -timeline t.json":      "-timeline needs a single -np",
		"bench -np 4 -timeline t.json":        "-timeline needs a single -np and a single -algo",
		"bench -np 4096 -max 2097152":         "exceeds 4 GiB",
		"bench extra":                         "takes 0 argument(s)",
		"tune engine -min 0":                  "need -min >= 1",
		"tune engine -reps 0":                 "-reps must be positive",
		"tune engine -warmup -1":              "-warmup must be non-negative",
		"tune engine -stat mean":              "unknown statistic",
		"tune engine -placements mesh:4":      "unknown placement",
		"tune engine -segs 0":                 "bad value",
		"tune sim -warm 3 -total 3":           "need -warm < -total",
		"tune sim -model summit":              "want hornet|laki",
		"tune bogus":                          `unknown subcommand "tune bogus"`,
		"tune":                                `unknown subcommand "tune"`,
		"figs -fig 9":                         `unknown figure "9"`,
		"compare":                             "needs -tune-table",
		"count -n -1":                         "-n must be non-negative",
		"viz -algo binomial":                  "only the two ring broadcasts are drawn",
		"viz -np 4 -root 9":                   "is not a rank",
		"spans":                               "takes 1 argument(s) <trace.json>",
		"soak -np 8 -procs 9":                 "need a single -np and 1 <= -procs",
		"soak -np 4,8":                        "need a single -np",
		"soak -drop 1.5":                      "-drop must be a probability",
		"soak -drop .6 -dup .6 -reorder .6":   "-drop, -dup and -reorder are one roll per datagram",
		"soak-child -np 8":                    "needs a single -np, -coord and -ranks",
		"soak-child -np 8 -coord x -ranks -1": "bad value",
		"bogus":                               `unknown subcommand "bogus"`,
	} {
		_, _, err := parse(t, line)
		if !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want a usage error containing %q", line, err, want)
		}
	}
}

// TestHelp: -h lists the subcommands, and a subcommand's -h lists exactly
// its flags; both report flag.ErrHelp so the tool exits 0.
func TestHelp(t *testing.T) {
	for _, args := range [][]string{nil, {"-h"}, {"help"}} {
		var out bytes.Buffer
		if _, _, err := Parse(args, &out); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("Parse(%q) = %v, want flag.ErrHelp", args, err)
		}
		for _, cmd := range Commands {
			if !strings.Contains(out.String(), "\n  "+cmd.Name+" ") {
				t.Errorf("usage for %q does not list %q:\n%s", args, cmd.Name, out.String())
			}
		}
	}
	var out bytes.Buffer
	if _, _, err := Parse([]string{"ring", "-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("ring -h: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "usage: bcast ring") || !strings.Contains(got, "-measure") ||
		!strings.Contains(got, "-np value") || !strings.Contains(got, "(default 8)") || strings.Contains(got, "-algo") {
		t.Errorf("ring -h:\n%s", got)
	}
}

// TestFlagCensus enumerates every subcommand's flag set: the vocabulary
// stays within the 45 names the five old tools had, the mode flags are
// gone, and a name means the same thing — same help, same default —
// wherever it appears.
func TestFlagCensus(t *testing.T) {
	type def struct{ usage, def, cmd string }
	seen := map[string]def{}
	for i := range Commands {
		cmd := &Commands[i]
		_, fs := cmd.flagSet()
		fs.VisitAll(func(f *flag.Flag) {
			d := def{f.Usage, f.DefValue, cmd.Name}
			if prev, ok := seen[f.Name]; ok && (prev.usage != d.usage || prev.def != d.def) {
				t.Errorf("-%s differs between %q and %q", f.Name, prev.cmd, cmd.Name)
			}
			seen[f.Name] = d
		})
	}
	if len(seen) > 45 {
		t.Errorf("%d distinct flag names, want <= 45", len(seen))
	}
	for _, gone := range []string{"autotune", "crosscheck", "list", "spans-summary", "child", "p"} {
		if _, ok := seen[gone]; ok {
			t.Errorf("the mode flag -%s is back", gone)
		}
	}
	t.Logf("%d distinct flag names over %d subcommands", len(seen), len(Commands))
}

// docVars stands in for the shell variables the documented command lines
// loop over.
var docVars = map[string]string{"exec": "pooled"}

// invocation matches a documented `bcast <subcommand> ...` command line:
// the tool's name after a backquote, "(", "cmd/", "bin/" or a tab, then lower-case
// words and flags up to whatever ends the command in prose or shell.
var invocation = regexp.MustCompile("(?:`|\\(|cmd/|bin/|\t)bcast ((?:tune )?[a-z][a-z-]*(?: +[^\\s`|>#;&)]+)*)")

// TestDocumentedCommandLinesParse extracts every bcast command line from
// the README, the package documentation and the CI workflow and checks
// that it still parses — nothing is executed — so a respelled or removed
// flag cannot leave the docs behind.
func TestDocumentedCommandLinesParse(t *testing.T) {
	for file, atLeast := range map[string]int{
		"../../README.md":                15,
		"../../doc.go":                   4,
		"../../cmd/bcast/main.go":        10,
		"../../.github/workflows/ci.yml": 15,
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Join shell continuations and re-wrapped comment lines.
		text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(data), " ")
		found := invocation.FindAllStringSubmatch(text, -1)
		if len(found) < atLeast {
			t.Errorf("%s: found %d bcast command lines, expected at least %d", file, len(found), atLeast)
		}
		for _, m := range found {
			line := os.Expand(strings.ReplaceAll(m[1], `"`, ""), func(v string) string { return docVars[v] })
			if _, _, err := parse(t, line); err != nil {
				t.Errorf("%s: `bcast %s`: %v", file, m[1], err)
			}
		}
	}
}
