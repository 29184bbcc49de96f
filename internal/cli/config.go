package cli

import (
	"fmt"
	"strings"
	"time"

	"repro/bcast"
	"repro/internal/bench"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/tune"
)

// Config holds the value of every flag. A subcommand registers only its
// own flags; the fields behind the others keep newConfig's defaults,
// which validate.
type Config struct {
	// The world a command boots or models.
	NP        []int
	Cores     int
	Root      int
	Eager     int
	Exec      engine.ExecPolicy
	Workers   int
	Transport string
	// What each broadcast is selected by.
	Algo  string
	Seg   int
	Table string
	// The doubling message-size axis.
	Min, Max int
	// The benchmark loop.
	Iters      int
	Persistent bool
	// Observability.
	Metrics  bool
	Timeline string
	Spans    int
	// The tuning grid beyond NP and the size axis.
	Segs       []int
	Placements []tune.Placement
	CandSet    string
	// The wall-clock measurement protocol.
	Reps, Warmup int
	Stat         measure.Stat
	Samples      string
	Out          string
	// The cluster model.
	Model        string
	Warm, Total  int
	NoContention bool
	Figs         []string
	// Traffic tables.
	N       int
	Measure bool
	// The multi-process soak.
	Procs              int
	Drop, Dup, Reorder float64
	Seed               int64
	Coord              string
	Ranks              []int
	// Args are the positional arguments.
	Args []string

	sel []Selection // what Algo resolved to; see Selections
}

// allFigs are the figure ids in the order -fig all prints them.
var allFigs = []string{"counts", "6a", "6b", "6c", "7", "8"}

func newConfig() *Config {
	return &Config{
		NP:      []int{8},
		Min:     16 << 10,
		Max:     4 << 20,
		Iters:   100,
		CandSet: "all",
		Reps:    measure.DefaultReps,
		Warmup:  measure.DefaultWarmup,
		Stat:    measure.StatTrimmed,
		Model:   "hornet",
		Warm:    2,
		Total:   6,
		Figs:    allFigs,
		N:       1 << 20,
		Procs:   4,
	}
}

// Selection is one way of selecting a broadcast's algorithm — a pinned
// registry row, the MPICH3 dispatch, or a tuning table — under the label
// the reports print for it.
type Selection struct {
	Label string
	collective.Options
}

// validate checks every value against the others, once, whichever
// subcommand registered which flags.
func (c *Config) validate() error {
	for _, np := range c.NP {
		if c.Root < 0 || c.Root >= np {
			return fmt.Errorf("-root %d is not a rank of -np %d", c.Root, np)
		}
	}
	// The measurers and the benchmark loop read a zero count as "default";
	// falling back would run a different measurement than asked for.
	for name, v := range map[string]int{"-iters": c.Iters, "-reps": c.Reps, "-warm": c.Warm} {
		if v < 1 {
			return fmt.Errorf("%s must be positive, got %d", name, v)
		}
	}
	for name, v := range map[string]int{"-cores": c.Cores, "-workers": c.Workers, "-min": c.Min,
		"-warmup": c.Warmup, "-n": c.N, "-spans": c.Spans, "-seg": c.Seg} {
		if v < 0 {
			return fmt.Errorf("%s must be non-negative, got %d", name, v)
		}
	}
	switch {
	case c.Workers != 0 && c.Exec != engine.Pooled:
		return fmt.Errorf("-workers requires -exec pooled (the goroutine substrate has no pool to size)")
	case c.Max < c.Min:
		return fmt.Errorf("need -min <= -max, got %d, %d", c.Min, c.Max)
	case c.Total <= c.Warm:
		return fmt.Errorf("need -warm < -total, got %d, %d", c.Warm, c.Total)
	}
	for name, p := range map[string]float64{"-drop": c.Drop, "-dup": c.Dup, "-reorder": c.Reorder} {
		if p < 0 || p >= 1 {
			return fmt.Errorf("%s must be a probability in [0, 1), got %g", name, p)
		}
	}
	if sum := c.Drop + c.Dup + c.Reorder; sum > 1+1e-9 {
		return fmt.Errorf("-drop, -dup and -reorder are one roll per datagram: their sum must not exceed 1, got %.4g", sum)
	}
	if err := c.resolveAlgo(); err != nil {
		return err
	}
	if c.Timeline != "" {
		// The trace file holds one run's spans.
		if len(c.NP) != 1 || len(c.sel) > 1 {
			return fmt.Errorf("-timeline needs a single -np and a single -algo (one trace file per run)")
		}
		if c.Spans == 0 {
			c.Spans = 4096
		}
	}
	return nil
}

// resolveAlgo parses -algo into selections and rejects a -seg that could
// not act: every selection it is given with must be able to run a
// segmented algorithm.
func (c *Config) resolveAlgo() error {
	if c.Table != "" {
		if c.Algo != "" {
			return fmt.Errorf("-algo and -tune-table are mutually exclusive")
		}
		return nil
	}
	algo := c.Algo
	if algo == "" {
		algo = "native,opt"
	}
	for _, name := range strings.Split(algo, ",") {
		name = strings.TrimSpace(name)
		o, err := bench.ParseAlgo(name)
		if err != nil {
			return err
		}
		if r, _ := collective.Lookup(o.Algorithm); c.Seg > 0 && !r.Caps.Segmented {
			var segmented []string
			for _, r := range collective.Algorithms() {
				if r.Caps.Segmented {
					segmented = append(segmented, r.Name)
				}
			}
			return fmt.Errorf("-seg %d cannot act on -algo %s, which never runs a segmented algorithm (the segmented ones: %s)",
				c.Seg, name, strings.Join(segmented, ", "))
		}
		o.SegSize = c.Seg
		c.sel = append(c.sel, Selection{Label: name, Options: o})
	}
	return nil
}

// engineMem guards against accidental monster allocations: every rank of
// an engine world holds one buffer of -max bytes.
func engineMem(c *Config) error {
	for _, np := range c.NP {
		if total := np * c.Max; total > 4<<30 {
			return fmt.Errorf("np*max = %d bytes exceeds 4 GiB; scale down", total)
		}
	}
	return nil
}

// gridMin: a size axis that doubles from 0 would collapse to a single
// zero-byte point whose winner the emitted rules would then extend to
// every message size.
func gridMin(c *Config) error {
	if c.Min < 1 {
		return fmt.Errorf("need -min >= 1")
	}
	return nil
}

func needTable(c *Config) error {
	if c.Table == "" {
		return fmt.Errorf("needs -tune-table")
	}
	return nil
}

func ringsOnly(c *Config) error {
	for _, s := range c.sel {
		if s.Algorithm != tune.RingNative && s.Algorithm != tune.RingOpt {
			return fmt.Errorf("-algo %s: only the two ring broadcasts are drawn (native|opt)", s.Label)
		}
	}
	return nil
}

func soakSplit(c *Config) error {
	if len(c.NP) != 1 || c.Procs < 1 || c.Procs > c.NP[0] {
		return fmt.Errorf("need a single -np and 1 <= -procs (%d) <= -np (%v)", c.Procs, c.NP)
	}
	return nil
}

func soakChild(c *Config) error {
	if len(c.NP) != 1 || c.Coord == "" || len(c.Ranks) == 0 {
		return fmt.Errorf("needs a single -np, -coord and -ranks")
	}
	return nil
}

// Sizes is the message-size axis: -min doubling up to -max (a zero -min
// is the single zero-byte point).
func (c *Config) Sizes() []int {
	var sizes []int
	for n := c.Min; n <= c.Max; n *= 2 {
		sizes = append(sizes, n)
		if n == 0 {
			break
		}
	}
	return sizes
}

// Placement is the single placement -cores names: blocked over nodes of
// that many cores, or the zero placement (one node).
func (c *Config) Placement() tune.Placement {
	if c.Cores == 0 {
		return tune.Placement{}
	}
	return tune.Placement{Kind: topology.KindBlocked, CoresPerNode: c.Cores}
}

// Selections is what each broadcast is selected by: one entry per -algo
// name, or the loaded -tune-table (MPICH3 where no rule matches).
func (c *Config) Selections() ([]Selection, error) {
	if c.Table == "" {
		return c.sel, nil
	}
	t, err := collective.LoadTable(c.Table)
	if err != nil {
		return nil, err
	}
	return []Selection{{
		Label:   fmt.Sprintf("tune-table %q", t.Name),
		Options: collective.Options{Tuner: tune.TableTuner{Table: t, Fallback: tune.MPICH3{}}, SegSize: c.Seg},
	}}, nil
}

// ClusterOptions are the facade options of the np-rank cluster the world,
// observe and selection flags describe.
func (c *Config) ClusterOptions(np int, sel Selection) []bcast.Option {
	opts := []bcast.Option{
		bcast.Procs(np),
		bcast.EagerLimit(c.Eager),
		bcast.Timeout(10 * time.Minute),
		bcast.WithTransport(c.Transport),
		bcast.Placement(c.Placement().String()),
		bcast.SegSize(sel.SegSize),
	}
	if sel.Algorithm != "" {
		opts = append(opts, bcast.Algorithm(sel.Algorithm))
	} else {
		opts = append(opts, bcast.Tuner(sel.Tuner.Decide))
	}
	if c.Exec == engine.Pooled {
		opts = append(opts, bcast.ExecPooled(c.Workers))
	}
	if c.Spans > 0 {
		opts = append(opts, bcast.WithSpans(c.Spans))
	}
	return opts
}

// EngineMeasurer is the wall-clock measurer the world and protocol flags
// describe, logging raw samples when -samples asks for them.
func (c *Config) EngineMeasurer() measure.EngineMeasurer {
	m := measure.EngineMeasurer{
		Warmup:     c.Warmup,
		Reps:       c.Reps,
		Root:       c.Root,
		EagerLimit: c.Eager,
		Stat:       c.Stat,
		Executor:   c.Exec,
		MaxWorkers: c.Workers,
		Transport:  c.Transport,
	}
	if c.Warmup == 0 {
		// The flag's 0 is "none"; the measurer spells that negative and
		// reads 0 as "default".
		m.Warmup = -1
	}
	if c.Samples != "" {
		m.Log = &measure.SampleLog{}
	}
	return m
}

// SimConfig is the simulated cluster the model flags describe, and the
// grid the grid and size flags span on it: unswept, its ranks are placed
// blocked over nodes of -cores cores (default: the model's preset).
func (c *Config) SimConfig() (bench.SimMeasurer, tune.SweepConfig) {
	model, cores := netsim.Hornet(), topology.HornetCoresPerNode
	if c.Model == "laki" {
		model, cores = netsim.Laki(), topology.LakiCoresPerNode
	}
	model.NoContention = c.NoContention
	if c.Cores > 0 {
		cores = c.Cores
	}
	sweep := c.Sweep()
	sweep.Place = tune.Placement{Kind: topology.KindBlocked, CoresPerNode: cores}
	return bench.SimMeasurer{Model: model, Warm: c.Warm, Total: c.Total, Root: c.Root}, sweep
}

// Sweep is the tuning grid the grid and size flags span; unswept, its
// ranks share one node.
func (c *Config) Sweep() tune.SweepConfig {
	return tune.SweepConfig{Procs: c.NP, Sizes: c.Sizes(), SegSizes: c.Segs, Placements: c.Placements}
}

// Candidates is the -candidates set.
func (c *Config) Candidates() []tune.Candidate {
	if c.CandSet == "mpich" {
		return bench.FamilyCandidates()
	}
	return collective.Candidates()
}

// Faults is the fault injection the soak flags ask for; nil means the
// socket is used bare.
func (c *Config) Faults() *transport.FaultConfig {
	if c.Drop == 0 && c.Dup == 0 && c.Reorder == 0 {
		return nil
	}
	return &transport.FaultConfig{Drop: c.Drop, Dup: c.Dup, Reorder: c.Reorder, Seed: c.Seed}
}
