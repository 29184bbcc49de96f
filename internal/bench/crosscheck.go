package bench

import (
	"fmt"
	"strings"

	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/tune"
)

// CrossCell is one grid point of the model-versus-engine comparison:
// what each measurement substrate declares the winner, and how long each
// said the winner takes.
type CrossCell struct {
	P, N int
	// Env is the measurement environment (identical for both substrates
	// by construction; placement classification included).
	Env tune.Env
	// Sim and Eng are the winning decisions of the netsim model and the
	// real engine, with their measured per-iteration times.
	Sim, Eng               tune.Decision
	SimSeconds, EngSeconds float64
	// AgreeAlgo reports the substrates picked the same algorithm;
	// AgreeExact additionally requires the same segment size.
	AgreeAlgo, AgreeExact bool
}

// CrossReport is the outcome of one cross-validation run: both derived
// tables and the per-cell agreement.
type CrossReport struct {
	SimTable, EngTable *tune.Table
	Cells              []CrossCell
	// AlgoAgreements and ExactAgreements count cells where the substrates
	// agree (same algorithm / same decision including segment size).
	AlgoAgreements, ExactAgreements int
}

// Agreement is the fraction of cells whose winning algorithm matches.
func (r *CrossReport) Agreement() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	return float64(r.AlgoAgreements) / float64(len(r.Cells))
}

// CrossCheck derives one tuning table from the netsim cost model and one
// from wall-clock runs on the real engine, over the same candidates and
// the same (procs x sizes x segments x placements) grid, and reports
// per-cell agreement — the measurement-grounded answer to "does the
// model pick the same winners the real substrate does", with the cells
// where they diverge called out for investigation.
//
// Both sides are measured on the topologies AutoTune builds for the same
// sweep, so each cell compares the two substrates on an identical
// environment. An unswept grid is measured on a single node, its rules
// keyed on that placement.
func CrossCheck(sim SimMeasurer, eng measure.EngineMeasurer, cands []tune.Candidate, sweep tune.SweepConfig) (*CrossReport, error) {
	// Both substrates must time the same broadcast: a root mismatch would
	// make per-cell divergence meaningless.
	sim.Root = eng.Root
	if len(sweep.Placements) == 0 {
		sweep.Placements = []tune.Placement{{Kind: topology.KindSingle}}
	}
	simTable, simWinners, err := tune.AutoTune(cands, sim, sweep)
	if err != nil {
		return nil, fmt.Errorf("bench: crosscheck netsim side: %w", err)
	}
	engTable, engWinners, err := tune.AutoTune(cands, eng, sweep)
	if err != nil {
		return nil, fmt.Errorf("bench: crosscheck engine side: %w", err)
	}
	if len(simWinners) != len(engWinners) {
		return nil, fmt.Errorf("bench: crosscheck grids diverged: %d netsim cells vs %d engine cells",
			len(simWinners), len(engWinners))
	}

	report := &CrossReport{SimTable: simTable, EngTable: engTable}
	for i, sw := range simWinners {
		ew := engWinners[i]
		// Both sweeps iterate placements, procs and sizes in the same
		// deterministic order; a mismatch means the measurers realized
		// different environments and the comparison would be meaningless.
		if sw.Procs != ew.Procs || sw.Bytes != ew.Bytes || sw.Env != ew.Env {
			return nil, fmt.Errorf("bench: crosscheck cell %d mismatch: netsim (p=%d, n=%d, env %+v) vs engine (p=%d, n=%d, env %+v)",
				i, sw.Procs, sw.Bytes, sw.Env, ew.Procs, ew.Bytes, ew.Env)
		}
		cell := CrossCell{
			P: sw.Procs, N: sw.Bytes, Env: sw.Env,
			Sim: sw.Decision, Eng: ew.Decision,
			SimSeconds: sw.Seconds, EngSeconds: ew.Seconds,
			AgreeAlgo:  sw.Decision.Algorithm == ew.Decision.Algorithm,
			AgreeExact: sw.Decision == ew.Decision,
		}
		if cell.AgreeAlgo {
			report.AlgoAgreements++
		}
		if cell.AgreeExact {
			report.ExactAgreements++
		}
		report.Cells = append(report.Cells, cell)
	}
	return report, nil
}

// FormatCrossReport renders the agreement report as an aligned table:
// one row per grid cell, divergent cells marked, and a closing summary
// line. Simulated times are virtual cluster time and engine times are
// host wall-clock — the winners are comparable, the magnitudes are not,
// which is why agreement is judged on decisions.
func FormatCrossReport(r *CrossReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-18s %-34s %-34s %12s %12s %s\n",
		"P", "bytes", "placement", "netsim-winner", "engine-winner", "sim-us", "eng-us", "agree")
	for _, c := range r.Cells {
		agree := "DIVERGE"
		switch {
		case c.AgreeExact:
			agree = "yes"
		case c.AgreeAlgo:
			agree = "algo (seg differs)"
		}
		fmt.Fprintf(&b, "%-6d %-10d %-18s %-34s %-34s %12.2f %12.2f %s\n",
			c.P, c.N, placeLabel(c.Env),
			decisionLabel(c.Sim), decisionLabel(c.Eng),
			c.SimSeconds*1e6, c.EngSeconds*1e6, agree)
	}
	fmt.Fprintf(&b, "# %d/%d cells agree on the algorithm (%.0f%%), %d exactly; DIVERGE rows are where the cost model and the wall clock disagree on the winner\n",
		r.AlgoAgreements, len(r.Cells), 100*r.Agreement(), r.ExactAgreements)
	return b.String()
}
