package bench

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestCrossCheckTinyGrid runs the full model-versus-engine cross
// validation at smoke scale: both tables must validate, the cells must
// cover the grid once per placement, and every cell must carry positive
// times from both substrates and an identical environment.
func TestCrossCheckTinyGrid(t *testing.T) {
	eng := measure.EngineMeasurer{Warmup: 1, Reps: 2, Stat: measure.StatMin}
	sweep := tune.SweepConfig{
		Procs:      []int{4, 8},
		Sizes:      []int{1 << 12, 1 << 16},
		Placements: []tune.Placement{blocked(2)},
	}
	report, err := CrossCheck(SimMeasurer{}, eng, FamilyCandidates(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(report.Cells), 4; got != want {
		t.Fatalf("got %d cells, want %d", got, want)
	}
	if err := report.SimTable.Validate(); err != nil {
		t.Errorf("netsim table: %v", err)
	}
	if err := report.EngTable.Validate(); err != nil {
		t.Errorf("engine table: %v", err)
	}
	for _, c := range report.Cells {
		if c.SimSeconds <= 0 || c.EngSeconds <= 0 {
			t.Errorf("cell (p=%d, n=%d): non-positive times %v/%v", c.P, c.N, c.SimSeconds, c.EngSeconds)
		}
		if c.Env.Placement != topology.KindBlocked {
			t.Errorf("cell (p=%d, n=%d): placement %q, want blocked", c.P, c.N, c.Env.Placement)
		}
		if c.Sim.Algorithm == "" || c.Eng.Algorithm == "" {
			t.Errorf("cell (p=%d, n=%d): empty decision %+v", c.P, c.N, c)
		}
	}
	if report.AlgoAgreements < report.ExactAgreements {
		t.Errorf("exact agreements (%d) exceed algorithm agreements (%d)",
			report.ExactAgreements, report.AlgoAgreements)
	}

	// Both tables must resolve through a TableTuner for the tuned
	// environment — the contract the CLIs depend on.
	e := tune.EnvOf(1<<16, 8, topology.Blocked(8, 2))
	for name, table := range map[string]*tune.Table{"sim": report.SimTable, "eng": report.EngTable} {
		d := tune.TableTuner{Table: table}.Decide(e)
		if d.Algorithm == "" {
			t.Errorf("%s table resolves to empty decision", name)
		}
	}

	out := FormatCrossReport(report)
	if !strings.Contains(out, "netsim-winner") || !strings.Contains(out, "cells agree") {
		t.Errorf("report rendering missing expected columns:\n%s", out)
	}
}

// TestAutoTuneOverEngineMeasurerDescribesProtocol: the emitted table's
// provenance must say it came from the engine and record the protocol.
func TestAutoTuneOverEngineMeasurerDescribesProtocol(t *testing.T) {
	eng := measure.EngineMeasurer{Warmup: 1, Reps: 2, Stat: measure.StatMin}
	table, winners, err := tune.AutoTune(FamilyCandidates(), eng, tune.SweepConfig{
		Procs: []int{4},
		Sizes: []int{1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 1 {
		t.Fatalf("got %d winners, want 1", len(winners))
	}
	if !strings.Contains(table.Description, "real engine") ||
		!strings.Contains(table.Description, "exec goroutine") ||
		!strings.Contains(table.Description, "reps 2") ||
		!strings.Contains(table.Description, "stat min") {
		t.Errorf("description %q lacks engine provenance", table.Description)
	}
}

// TestAutoTuneOverEngineMeasurerDescribesExecutor: a pooled-substrate
// sweep must record the pool (with its clamped worker count) in the
// emitted table's provenance — tables from different substrates are
// different artifacts.
func TestAutoTuneOverEngineMeasurerDescribesExecutor(t *testing.T) {
	eng := measure.EngineMeasurer{
		Warmup: 1, Reps: 2, Stat: measure.StatMin,
		Executor: engine.Pooled, MaxWorkers: 1,
	}
	table, _, err := tune.AutoTune(FamilyCandidates(), eng, tune.SweepConfig{
		Procs: []int{4},
		Sizes: []int{1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.Description, "exec pooled(1)") {
		t.Errorf("description %q lacks pooled-executor provenance", table.Description)
	}
}
