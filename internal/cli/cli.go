// Package cli is the bcast tool's one flag vocabulary. Every flag is
// defined once — one spelling, one default, one help string — and a
// subcommand is the list of flags it takes, so a flag that does not apply
// to a subcommand does not exist there: the flag package rejects it, and
// no list of "flags of the other mode" has to. Parse turns an argument
// vector into a validated Config; the Config's methods (config.go) yield
// the typed values the rest of the module consumes.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/transport"
	"repro/internal/tune"
)

// Command is one subcommand of the tool: a name, a one-line summary and
// the flags it takes.
type Command struct {
	// Name is what follows "bcast" on the command line ("bench",
	// "tune engine").
	Name    string
	Summary string
	// flags names the command's flags, space-separated; each is defined
	// by Config.define.
	flags string
	// args names the positional arguments in the usage line; a command
	// takes exactly as many as it names.
	args string
	// checks validate what only this command requires.
	checks []check
}

// check validates what only some subcommands require of a Config.
type check func(*Config) error

// The flag groups subcommands are assembled from.
const (
	world    = "root eager exec workers" // with np, and cores and transport where they apply
	selectG  = "algo seg tune-table"
	sizes    = "min max"
	grid     = "np min max segs placements candidates"
	protocol = "reps warmup stat samples"
	model    = "model warm total nocontention"
	observe  = "metrics timeline spans"
	faults   = "drop dup reorder seed metrics"
)

// Commands is the tool's surface, in the order the usage text lists it.
var Commands = []Command{
	{Name: "algos", Summary: "list the registered broadcast algorithms with their capability flags and tuning families"},
	{Name: "bench", Summary: "the paper's user-level benchmark on the real engine: barrier, -iters broadcasts, barrier, bandwidth per size",
		flags: "np cores transport " + world + " " + selectG + " " + sizes + " iters persistent " + observe, checks: []check{engineMem}},
	{Name: "tune engine", Summary: "auto-tune over the registry from wall-clock runs on the real engine and emit a JSON tuning table",
		flags: grid + " transport " + world + " " + protocol + " o", checks: []check{engineMem, gridMin}},
	{Name: "tune sim", Summary: "auto-tune over the registry on the netsim cluster model and emit a JSON tuning table",
		flags: grid + " " + model + " o", checks: []check{gridMin}},
	{Name: "crosscheck", Summary: "derive one table from netsim and one from the engine over the same grid and report per-cell agreement",
		flags: grid + " " + world + " " + protocol + " " + model + " o", checks: []check{engineMem, gridMin}},
	{Name: "figs", Summary: "regenerate the paper's evaluation figures on the modelled cluster",
		flags: "fig cores " + model},
	{Name: "curves", Summary: "simulated bandwidth curves per algorithm on the modelled cluster",
		flags: "np cores algo seg " + sizes + " " + model, checks: []check{gridMin}},
	{Name: "compare", Summary: "tuned-table versus native MPICH3 dispatch on the modelled cluster",
		flags: "np tune-table placements " + sizes + " " + model, checks: []check{gridMin, needTable}},
	{Name: "count", Summary: "whole-broadcast schedule traffic per algorithm or tuning-table decision",
		flags: "np cores n " + selectG},
	{Name: "ring", Summary: "the Section IV ring-allgather transfer counts (P=8: 56 -> 44), optionally verified by traced execution",
		flags: "np n measure"},
	{Name: "viz", Summary: "draw the binomial scatter tree and the ring allgather steps from the schedule generators",
		flags: "np root algo", checks: []check{ringsOnly}},
	{Name: "spans", Summary: "per-operation latency percentiles of a trace written by bench -timeline",
		args: "<trace.json>"},
	{Name: "soak", Summary: "multi-process byte-identity soak of the UDP transport against the in-process engine",
		flags: "np procs " + faults, checks: []check{soakSplit}},
	{Name: "soak-child", Summary: "(internal) one rank-hosting process of a soak",
		flags: "np coord ranks " + faults, checks: []check{soakChild}},
}

// ErrUsage wraps every error Parse returns for a bad command line, so a
// caller can tell it from a failure of the command itself.
var ErrUsage = errors.New("usage")

// Parse resolves args (the command line after the program name) to a
// subcommand and its validated configuration. Help requested with -h is
// written to help and reported as flag.ErrHelp; every other error wraps
// ErrUsage.
func Parse(args []string, help io.Writer) (*Command, *Config, error) {
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" || args[0] == "help" {
		usage(help)
		return nil, nil, flag.ErrHelp
	}
	name, rest := args[0], args[1:]
	if name == "tune" && len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		name, rest = name+" "+rest[0], rest[1:]
	}
	var cmd *Command
	for i := range Commands {
		if Commands[i].Name == name {
			cmd = &Commands[i]
		}
	}
	if cmd == nil {
		return nil, nil, fmt.Errorf("%w: unknown subcommand %q (run 'bcast -h' for the list)", ErrUsage, name)
	}

	c, fs := cmd.flagSet()
	err := fs.Parse(rest)
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(help, "usage: bcast %s [flags] %s\n\n%s\n\n", name, cmd.args, cmd.Summary)
		fs.SetOutput(help)
		fs.PrintDefaults()
		return nil, nil, flag.ErrHelp
	}
	if err == nil && fs.NArg() != len(strings.Fields(cmd.args)) {
		err = fmt.Errorf("takes %d argument(s) %s, got %q", len(strings.Fields(cmd.args)), cmd.args, fs.Args())
	}
	if err == nil {
		c.Args = fs.Args()
		err = c.validate()
	}
	for _, check := range cmd.checks {
		if err == nil {
			err = check(c)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %w (run 'bcast %s -h' for the flags)", ErrUsage, name, err, name)
	}
	return cmd, c, nil
}

// flagSet is a fresh configuration at its defaults and the flag set that
// binds the command's flags to it.
func (cmd *Command) flagSet() (*Config, *flag.FlagSet) {
	c := newConfig()
	fs := flag.NewFlagSet("bcast "+cmd.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are returned; Parse prints help itself
	for _, f := range strings.Fields(cmd.flags) {
		c.define(fs, f)
	}
	return c, fs
}

// usage lists the subcommands.
func usage(w io.Writer) {
	fmt.Fprint(w, "usage: bcast <subcommand> [flags]\n\nsubcommands:\n")
	for _, cmd := range Commands {
		fmt.Fprintf(w, "  %-12s %s\n", cmd.Name, cmd.Summary)
	}
	fmt.Fprint(w, "\nrun 'bcast <subcommand> -h' for a subcommand's flags\n")
}

// define registers the flag called name on fs, bound to its field of c;
// the field's current value is the default. It is the only place a flag
// name, default or help string is written down.
func (c *Config) define(fs *flag.FlagSet, name string) {
	switch name {
	case "np":
		fs.Var(intList{&c.NP, 1}, name, "comma-separated rank counts")
	case "cores":
		fs.IntVar(&c.Cores, name, c.Cores, "cores per node of the blocked placement (0 = one node on the engine, the model's preset on the simulated cluster)")
	case "root":
		fs.IntVar(&c.Root, name, c.Root, "broadcast root")
	case "eager":
		fs.IntVar(&c.Eager, name, c.Eager, "eager limit override in bytes (0 = engine default, -1 = rendezvous only)")
	case "exec":
		fs.Func(name, "rank-execution substrate: goroutine (one per rank, default) | pooled (bounded cooperative worker pool; use for -np in the hundreds)",
			func(s string) (err error) { c.Exec, err = engine.ParseExecPolicy(s); return err })
	case "workers":
		fs.IntVar(&c.Workers, name, c.Workers, "pooled executor worker count, clamped to GOMAXPROCS (0 = GOMAXPROCS; requires -exec pooled)")
	case "transport":
		fs.Func(name, "point-to-point substrate: chan (in-process, default) | udp (every message over a loopback UDP socket with the real framing and retransmit path)",
			oneOf(&c.Transport, transport.ChanName, transport.UDPName))
	case "algo":
		fs.StringVar(&c.Algo, name, c.Algo, "comma-separated broadcasts: registry names (see 'bcast algos'), native|opt for the paper's two rings, auto|auto-opt for the MPICH3 dispatch (default native,opt)")
	case "seg":
		fs.IntVar(&c.Seg, name, c.Seg, "segment size in bytes for segmented algorithms (0 = default)")
	case "tune-table":
		fs.StringVar(&c.Table, name, c.Table, "JSON tuning table to dispatch every broadcast through (instead of -algo)")
	case "min":
		fs.IntVar(&c.Min, name, c.Min, "smallest message size in bytes; sizes double up to -max")
	case "max":
		fs.IntVar(&c.Max, name, c.Max, "largest message size in bytes")
	case "iters":
		fs.IntVar(&c.Iters, name, c.Iters, "timed broadcasts per size (paper: 100)")
	case "persistent":
		fs.BoolVar(&c.Persistent, name, c.Persistent, "time Start/Wait rounds on one BcastInit handle per size instead of per-call Bcast")
	case "metrics":
		fs.BoolVar(&c.Metrics, name, c.Metrics, "print the engine metrics snapshot after the run")
	case "timeline":
		fs.StringVar(&c.Timeline, name, c.Timeline, "write operation spans as Chrome trace-event JSON to this file (needs a single -np and -algo)")
	case "spans":
		fs.IntVar(&c.Spans, name, c.Spans, "per-rank span ring capacity (0 = 4096 with -timeline, else spans off)")
	case "segs":
		fs.Var(intList{&c.Segs, 1}, name, "comma-separated segment sizes: sweep every segmented candidate over these instead of its default")
	case "placements":
		fs.Func(name, "comma-separated placements to sweep: single|blocked:N|round-robin:N; one rule group or report section each", c.setPlacements)
	case "candidates":
		fs.Func(name, "tuning candidate set: all (whole registry, default) | mpich (the dispatcher's own family)", oneOf(&c.CandSet, "all", "mpich"))
	case "reps":
		fs.IntVar(&c.Reps, name, c.Reps, "timed repetitions per measured grid point")
	case "warmup":
		fs.IntVar(&c.Warmup, name, c.Warmup, "untimed warm-up iterations per measured grid point (0 = none)")
	case "stat":
		fs.Func(name, "statistic reported to the tuner: min|median|trimmed (default trimmed)",
			func(s string) (err error) { c.Stat, err = measure.ParseStat(s); return err })
	case "samples":
		fs.StringVar(&c.Samples, name, c.Samples, "write every raw repetition sample to this JSON file")
	case "o":
		fs.StringVar(&c.Out, name, c.Out, "write the derived tuning table to this file instead of stdout")
	case "model":
		fs.Func(name, "cluster model: hornet (default) | laki", oneOf(&c.Model, "hornet", "laki"))
	case "warm":
		fs.IntVar(&c.Warm, name, c.Warm, "warm-up iterations of the simulated steady-state timing")
	case "total":
		fs.IntVar(&c.Total, name, c.Total, "total iterations of the simulated steady-state timing")
	case "nocontention":
		fs.BoolVar(&c.NoContention, name, c.NoContention, "ablation: disable NIC/memory contention in the model")
	case "fig":
		fs.Func(name, "comma-separated figures to regenerate: counts|6a|6b|6c|7|8|all (default all)", c.setFigs)
	case "n":
		fs.IntVar(&c.N, name, c.N, "broadcast size in bytes")
	case "measure":
		fs.BoolVar(&c.Measure, name, c.Measure, "verify the counts by traced execution on the real engine (P <= 64)")
	case "procs":
		fs.IntVar(&c.Procs, name, c.Procs, "processes to split the ranks across")
	case "drop":
		fs.Float64Var(&c.Drop, name, c.Drop, "per-datagram drop probability injected at each child's socket")
	case "dup":
		fs.Float64Var(&c.Dup, name, c.Dup, "per-datagram duplication probability")
	case "reorder":
		fs.Float64Var(&c.Reorder, name, c.Reorder, "per-datagram reorder probability")
	case "seed":
		fs.Int64Var(&c.Seed, name, c.Seed, "fault-injector seed base (child i uses seed+i)")
	case "coord":
		fs.StringVar(&c.Coord, name, c.Coord, "coordinator bootstrap address")
	case "ranks":
		fs.Var(intList{&c.Ranks, 0}, name, "comma-separated ranks this process hosts")
	default:
		panic("cli: command lists undefined flag " + name)
	}
}

// intList is a comma-separated list of ints, each at least min.
type intList struct {
	dst *[]int
	min int
}

func (l intList) String() string {
	if l.dst == nil {
		return ""
	}
	return JoinInts(*l.dst)
}

// JoinInts renders xs in the comma-separated syntax the list flags parse.
func JoinInts(xs []int) string {
	toks := make([]string, len(xs))
	for i, x := range xs {
		toks[i] = strconv.Itoa(x)
	}
	return strings.Join(toks, ",")
}

func (l intList) Set(s string) error {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < l.min {
			return fmt.Errorf("bad value %q", tok)
		}
		out = append(out, v)
	}
	*l.dst = out
	return nil
}

// oneOf is a flag.Func setter that accepts only the listed spellings.
func oneOf(dst *string, choices ...string) func(string) error {
	return func(s string) error {
		if !slices.Contains(choices, s) {
			return fmt.Errorf("want %s", strings.Join(choices, "|"))
		}
		*dst = s
		return nil
	}
}

func (c *Config) setPlacements(s string) error {
	c.Placements = nil
	for _, tok := range strings.Split(s, ",") {
		pl, err := tune.ParsePlacement(tok)
		if err != nil {
			return err
		}
		c.Placements = append(c.Placements, pl)
	}
	return nil
}

func (c *Config) setFigs(s string) error {
	if s == "all" {
		c.Figs = allFigs
		return nil
	}
	c.Figs = strings.Split(s, ",")
	for _, id := range c.Figs {
		if !slices.Contains(allFigs, id) {
			return fmt.Errorf("unknown figure %q (want %s|all)", id, strings.Join(allFigs, "|"))
		}
	}
	return nil
}
