// Command bcastsim regenerates the paper's evaluation figures on the
// modelled cluster (internal/netsim): bandwidth curves for Figures
// 6(a)-(c) and 8, the throughput-speedup series of Figure 7, and the
// Section IV transfer-count table.
//
// Usage:
//
//	bcastsim -fig all                 # every figure, Hornet model
//	bcastsim -fig 6b                  # one figure
//	bcastsim -fig 7 -model laki       # the NEC calibration
//	bcastsim -fig 6a -nocontention    # ablation: no NIC/memory queueing
//
// Beyond the figures, the tool exposes the algorithm registry and the
// tuning subsystem:
//
//	bcastsim -algo scatter-ring-allgather-opt,chain -np 64   # bandwidth curves by registry name
//	bcastsim -algo smp-opt,opt,auto -np 48                   # -algo also takes native|opt|auto|auto-opt
//	bcastsim -autotune -np 16,64,129 -o table.json           # derive a tuning table on the model
//	bcastsim -autotune -candidates mpich -segs 8192,65536 -placements blocked:24,round-robin:24
//	                                                         # sweep segment sizes and placements;
//	                                                         # emits per-topology rule groups
//	bcastsim -tune-table table.json -np 16,64,129            # tuned-vs-native comparison
//	bcastsim -tune-table table.json -placements blocked:24,round-robin:24   # per-placement breakdown
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/collective"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/tune"
)

func main() {
	var (
		figFlag      = flag.String("fig", "all", "figure to regenerate: 6a|6b|6c|7|8|counts|all")
		modelFlag    = flag.String("model", "hornet", "cluster model: hornet|laki")
		coresFlag    = flag.Int("cores", 0, "cores per node (default: model preset)")
		warmFlag     = flag.Int("warm", 2, "warm-up iterations for steady-state timing")
		totalFlag    = flag.Int("total", 6, "total iterations for steady-state timing")
		noContention = flag.Bool("nocontention", false, "ablation: disable NIC/memory contention")
		algoFlag     = flag.String("algo", "", "comma-separated algorithms (registry names, native|opt, auto|auto-opt): simulate bandwidth curves instead of figures")
		npFlag       = flag.String("np", "", "comma-separated process counts for -algo/-autotune/-tune-table (default 16,64,129)")
		minFlag      = flag.Int("min", 16<<10, "smallest message size for -algo/-autotune/-tune-table sweeps")
		maxFlag      = flag.Int("max", 4<<20, "largest message size for -algo/-autotune/-tune-table sweeps")
		segFlag      = flag.Int("seg", 0, "segment size for segmented algorithms (0 = default)")
		segsFlag     = flag.String("segs", "", "comma-separated segment sizes for -autotune: sweep every segmented candidate over these instead of its default")
		placeFlag    = flag.String("placements", "", "comma-separated placements for -autotune/-tune-table: single|blocked:N|round-robin:N; emits per-topology rule groups")
		autotuneFlag = flag.Bool("autotune", false, "auto-tune over the registry and emit a JSON tuning table")
		candFlag     = flag.String("candidates", "all", "auto-tune candidate set: all (whole registry) | mpich (the dispatcher's own family) | list (print both sets with capability flags and exit)")
		tableFlag    = flag.String("tune-table", "", "JSON tuning table: report tuned-vs-native dispatch on the model")
		outFlag      = flag.String("o", "", "write -autotune output to this file instead of stdout")
	)
	flag.Parse()

	if *candFlag == "list" {
		printCandidates()
		return
	}

	var model *netsim.Model
	cores := *coresFlag
	switch *modelFlag {
	case "hornet":
		model = netsim.Hornet()
		if cores == 0 {
			cores = topology.HornetCoresPerNode
		}
	case "laki":
		model = netsim.Laki()
		if cores == 0 {
			cores = topology.LakiCoresPerNode
		}
	default:
		fmt.Fprintf(os.Stderr, "bcastsim: unknown model %q\n", *modelFlag)
		os.Exit(2)
	}
	model.NoContention = *noContention

	cfg := bench.SimConfig{Model: model, CoresPerNode: cores, Warm: *warmFlag, Total: *totalFlag}

	if *algoFlag != "" || *autotuneFlag || *tableFlag != "" {
		procs, err := parseInts(*npFlag, []int{16, 64, 129})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcastsim: -np: %v\n", err)
			os.Exit(2)
		}
		if *minFlag <= 0 || *maxFlag < *minFlag {
			fmt.Fprintln(os.Stderr, "bcastsim: bad -min/-max")
			os.Exit(2)
		}
		var sizes []int
		for n := *minFlag; n <= *maxFlag; n *= 2 {
			sizes = append(sizes, n)
		}
		segs, err := parseInts(*segsFlag, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcastsim: -segs: %v\n", err)
			os.Exit(2)
		}
		placements, err := parsePlacements(*placeFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcastsim: -placements: %v\n", err)
			os.Exit(2)
		}
		// The sweep flags only act in specific modes; reject them elsewhere
		// rather than printing plausible but un-swept output.
		if len(segs) > 0 && !*autotuneFlag {
			fmt.Fprintln(os.Stderr, "bcastsim: -segs requires -autotune (use -seg for -algo curves)")
			os.Exit(2)
		}
		if len(placements) > 0 && !*autotuneFlag && *tableFlag == "" {
			fmt.Fprintln(os.Stderr, "bcastsim: -placements requires -autotune or -tune-table")
			os.Exit(2)
		}
		opts := tuningOpts{
			algos: *algoFlag, seg: *segFlag,
			autotune: *autotuneFlag, candSet: *candFlag,
			tablePath: *tableFlag, outPath: *outFlag,
			segs: segs, placements: placements,
		}
		if err := runTuning(cfg, procs, sizes, opts); err != nil {
			fmt.Fprintf(os.Stderr, "bcastsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(id string) error {
		switch id {
		case "6a", "6b", "6c", "8":
			np := map[string]int{"6a": 16, "6b": 64, "6c": 256, "8": 129}[id]
			var sizes []int
			if id == "8" {
				sizes = bench.Fig8Sizes()
			}
			fig, err := bench.Fig6(cfg, np, sizes)
			if err != nil {
				return err
			}
			if id == "8" {
				fig.ID, fig.Title = "fig8", "Bandwidth comparison for medium and long messages, np=129"
			}
			fmt.Print(bench.FormatFigure(fig))
			maxGain, peakGain, err := bench.Improvement(fig)
			if err != nil {
				return err
			}
			fmt.Printf("# max gain %.1f%%, peak-bandwidth gain %.1f%%\n\n", maxGain, peakGain)
		case "7":
			fig, err := bench.Fig7(cfg, nil, nil)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFigure(fig))
			fmt.Println()
		case "counts":
			fmt.Println("# Section IV transfer counts (ring allgather phase, n = 16 KiB)")
			// A fixed buffer size keeps the byte columns meaningful for
			// every P (all chunks non-empty up to P=256).
			rows := bench.TransferCounts([]int{2, 4, 8, 10, 16, 32, 64, 129, 256}, 64*256)
			fmt.Print(bench.FormatCounts(rows))
			fmt.Println()
		default:
			return fmt.Errorf("unknown figure %q", id)
		}
		return nil
	}

	ids := []string{"counts", "6a", "6b", "6c", "7", "8"}
	if *figFlag != "all" {
		ids = strings.Split(*figFlag, ",")
	}
	for _, id := range ids {
		if err := run(strings.TrimSpace(id)); err != nil {
			fmt.Fprintf(os.Stderr, "bcastsim: %v\n", err)
			os.Exit(1)
		}
	}
}

// printCandidates lists the auto-tune candidate sets with each
// algorithm's capability flags, in the same format bcastbench -list uses.
func printCandidates() {
	inFamily := map[string]bool{}
	for _, c := range bench.FamilyCandidates() {
		inFamily[c.Name] = true
	}
	fmt.Println("# auto-tune candidates (the registry):")
	for _, r := range collective.Algorithms() {
		set := "all"
		if inFamily[r.Name] {
			set = "all,mpich"
		}
		fmt.Printf("%-34s %-30s %-10s %s\n", r.Name, r.Caps.Label(), set, r.Summary)
	}
}

// parseInts parses a comma-separated int list, returning def when empty.
func parseInts(s string, def []int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return def, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// tuningOpts bundles the registry-facing CLI options.
type tuningOpts struct {
	algos      string
	seg        int
	autotune   bool
	candSet    string
	tablePath  string
	outPath    string
	segs       []int
	placements []tune.Placement
}

// parsePlacements parses a comma-separated placement list
// ("single,blocked:24,round-robin:24").
func parsePlacements(s string) ([]tune.Placement, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []tune.Placement
	for _, tok := range strings.Split(s, ",") {
		pl, err := tune.ParsePlacement(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, pl)
	}
	return out, nil
}

// runTuning handles the registry-facing modes: -algo bandwidth curves,
// -autotune table derivation (optionally sweeping segment sizes and
// placements), and -tune-table comparison.
func runTuning(cfg bench.SimConfig, procs, sizes []int, o tuningOpts) error {
	switch {
	case o.autotune:
		var cands []tune.Candidate
		switch o.candSet {
		case "all":
			cands = collective.Candidates()
		case "mpich":
			cands = bench.FamilyCandidates()
		default:
			return fmt.Errorf("unknown -candidates %q (all|mpich)", o.candSet)
		}
		fmt.Print("# candidates measured wherever their capabilities admit the grid point:")
		for _, c := range cands {
			fmt.Print(" ", c.Name)
		}
		fmt.Println()
		var (
			table   *tune.Table
			winners []tune.Winner
			err     error
		)
		if len(o.segs) > 0 || len(o.placements) > 0 {
			sweep := tune.SweepConfig{Procs: procs, Sizes: sizes, SegSizes: o.segs, Placements: o.placements}
			table, winners, err = bench.AutoTuneSweepSim(cfg, cands, sweep)
		} else {
			table, winners, err = bench.AutoTuneSim(cfg, cands, procs, sizes)
		}
		if err != nil {
			return err
		}
		fmt.Println("# auto-tuner grid winners:")
		fmt.Print(bench.FormatWinners(winners))
		if o.outPath != "" {
			if err := tune.SaveTable(table, o.outPath); err != nil {
				return err
			}
			fmt.Printf("# tuning table written to %s (%d rules)\n", o.outPath, len(table.Rules))
			return nil
		}
		data, err := table.JSON()
		if err != nil {
			return err
		}
		fmt.Println("# tuning table:")
		fmt.Println(string(data))
		return nil

	case o.tablePath != "":
		table, err := tune.LoadTable(o.tablePath)
		if err != nil {
			return err
		}
		rows, err := bench.CompareTunedPlaced(cfg, table, procs, sizes, o.placements)
		if err != nil {
			return err
		}
		fmt.Printf("# tuned-vs-native dispatch on model %q, table %q\n", cfg.Model.Name, table.Name)
		fmt.Print(bench.FormatTunedRows(rows))
		return nil

	default:
		algos, err := bench.ParseAlgos(o.algos)
		if err != nil {
			return err
		}
		for _, p := range procs {
			topo := topology.Blocked(p, cfg.CoresPerNode)
			fmt.Printf("# simulated bandwidth (MB/s), model %q, np=%d\n", cfg.Model.Name, p)
			fmt.Printf("%-12s", "bytes")
			for _, name := range strings.Split(o.algos, ",") {
				fmt.Printf(" %30s", strings.TrimSpace(name))
			}
			fmt.Println()
			for _, n := range sizes {
				fmt.Printf("%-12d", n)
				for _, a := range algos {
					a.SegSize = o.seg
					r, err := bench.MeasureSimDecision(cfg, a.Decide(tune.EnvOf(n, p, topo)), p, n)
					if err != nil {
						return err
					}
					fmt.Printf(" %30.2f", r.MBps)
				}
				fmt.Println()
			}
			fmt.Println()
		}
		return nil
	}
}
