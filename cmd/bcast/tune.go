package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/measure"
	"repro/internal/tune"
)

// runTuneEngine derives a tuning table from wall-clock runs: every
// applicable candidate is measured per grid point on the engine (warmup +
// repetitions between barriers, robust statistic over the samples).
func runTuneEngine(cfg *cli.Config, out io.Writer) error {
	eng := cfg.EngineMeasurer()
	if err := autoTune(cfg, eng, cfg.Sweep(), out); err != nil {
		return err
	}
	return saveSamples(cfg, eng, out)
}

// runTuneSim derives a tuning table on the netsim cluster model.
func runTuneSim(cfg *cli.Config, out io.Writer) error {
	sim, sweep := cfg.SimConfig()
	return autoTune(cfg, sim, sweep, out)
}

// autoTune sweeps the grid on m and emits the winners and the table.
func autoTune(cfg *cli.Config, m tune.Measurer, sweep tune.SweepConfig, out io.Writer) error {
	cands := cfg.Candidates()
	fmt.Fprint(out, "# candidates measured wherever their capabilities admit the grid point:")
	for _, c := range cands {
		fmt.Fprint(out, " ", c.Name)
	}
	fmt.Fprintln(out)
	table, winners, err := tune.AutoTune(cands, m, sweep)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# auto-tuner grid winners:")
	fmt.Fprint(out, bench.FormatWinners(winners))
	return emitTable(cfg, table, out)
}

// runCrossCheck derives one table from the netsim cost model and one from
// the engine over the same grid, reports the cells where the model and
// the wall clock disagree on the winner, and emits the engine's table.
func runCrossCheck(cfg *cli.Config, out io.Writer) error {
	eng := cfg.EngineMeasurer()
	sim, _ := cfg.SimConfig()
	report, err := bench.CrossCheck(sim, eng, cfg.Candidates(), cfg.Sweep())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# netsim (%s) vs real-engine cross-check, %d procs x %d sizes:\n",
		sim.Model.Name, len(cfg.NP), len(cfg.Sizes()))
	fmt.Fprint(out, bench.FormatCrossReport(report))
	if err := saveSamples(cfg, eng, out); err != nil {
		return err
	}
	return emitTable(cfg, report.EngTable, out)
}

// saveSamples writes the engine measurer's raw repetition samples to
// -samples, so a run is reproducible and two runs are diffable.
func saveSamples(cfg *cli.Config, eng measure.EngineMeasurer, out io.Writer) error {
	if eng.Log == nil {
		return nil
	}
	if err := eng.Log.Save(cfg.Samples); err != nil {
		return err
	}
	fmt.Fprintf(out, "# raw samples written to %s (%d records)\n", cfg.Samples, len(eng.Log.Records()))
	return nil
}

// emitTable writes the table to -o, or prints it.
func emitTable(cfg *cli.Config, table *tune.Table, out io.Writer) error {
	if cfg.Out != "" {
		if err := tune.SaveTable(table, cfg.Out); err != nil {
			return err
		}
		fmt.Fprintf(out, "# tuning table written to %s (%d rules)\n", cfg.Out, len(table.Rules))
		return nil
	}
	data, err := table.JSON()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# tuning table:\n%s\n", data)
	return nil
}
