package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/collective"
	"repro/internal/tune"
)

// runFigs regenerates the paper's evaluation figures on the modelled
// cluster: the bandwidth curves of Figures 6(a)-(c) and 8, the
// throughput-speedup series of Figure 7 and the Section IV
// transfer-count table.
func runFigs(cfg *cli.Config, out io.Writer) error {
	sim, sweep := cfg.SimConfig()
	for _, id := range cfg.Figs {
		if id == "counts" {
			fmt.Fprintln(out, "# Section IV transfer counts (ring allgather phase, n = 16 KiB)")
			// A fixed buffer size keeps the byte columns meaningful for
			// every P (all chunks non-empty up to P=256).
			rows := bench.TransferCounts([]int{2, 4, 8, 10, 16, 32, 64, 129, 256}, 64*256)
			fmt.Fprint(out, bench.FormatCounts(rows), "\n")
			continue
		}
		var (
			fig bench.Figure
			err error
		)
		switch id {
		case "7":
			fig, err = bench.Fig7(sim, sweep.Place, nil, nil)
		case "8":
			fig, err = bench.Fig8(sim, sweep.Place, nil)
		default:
			fig, err = bench.Fig6(sim, sweep.Place, map[string]int{"6a": 16, "6b": 64, "6c": 256}[id], nil)
		}
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatFigure(fig))
		if id != "7" { // the bandwidth figures: native against opt
			maxGain, peakGain, err := bench.Improvement(fig)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "# max gain %.1f%%, peak-bandwidth gain %.1f%%\n", maxGain, peakGain)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runCurves prints simulated bandwidth curves per -algo name.
func runCurves(cfg *cli.Config, out io.Writer) error {
	sim, sweep := cfg.SimConfig()
	sels, err := cfg.Selections()
	if err != nil {
		return err
	}
	for _, p := range sweep.Procs {
		topo, err := sweep.Place.Map(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# simulated bandwidth (MB/s), model %q, np=%d\n", sim.Model.Name, p)
		fmt.Fprintf(out, "%-12s", "bytes")
		for _, s := range sels {
			fmt.Fprintf(out, " %30s", s.Label)
		}
		fmt.Fprintln(out)
		for _, n := range sweep.Sizes {
			fmt.Fprintf(out, "%-12d", n)
			for _, s := range sels {
				r, err := bench.MeasureSimDecision(sim, s.Decide(tune.EnvOf(n, p, topo)), topo, n)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, " %30.2f", r.MBps)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runCompare reports where a tuning table's dispatch beats MPICH3's
// static one on the model, with a per-placement breakdown under
// -placements.
func runCompare(cfg *cli.Config, out io.Writer) error {
	sim, sweep := cfg.SimConfig()
	table, err := collective.LoadTable(cfg.Table)
	if err != nil {
		return err
	}
	rows, err := bench.CompareTuned(sim, table, sweep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# tuned-vs-native dispatch on model %q, table %q\n", sim.Model.Name, table.Name)
	fmt.Fprint(out, bench.FormatTunedRows(rows))
	return nil
}
