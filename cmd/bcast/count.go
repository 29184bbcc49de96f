package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/tune"
)

// runAlgos lists the registry: each algorithm's capability flags and the
// -candidates sets that hold it.
func runAlgos(_ *cli.Config, out io.Writer) error {
	inFamily := map[string]bool{}
	for _, c := range bench.FamilyCandidates() {
		inFamily[c.Name] = true
	}
	fmt.Fprintln(out, "# registered broadcast algorithms (name, capabilities, -candidates sets, summary):")
	for _, r := range collective.Algorithms() {
		set := "all"
		if inFamily[r.Name] {
			set = "all,mpich"
		}
		fmt.Fprintf(out, "%-34s %-30s %-10s %s\n", r.Name, r.Caps.Label(), set, r.Summary)
	}
	return nil
}

// runCount tabulates whole-broadcast schedule traffic (all phases, not
// just the ring) per rank count and selection, from the generated
// programs. Decisions are resolved exactly as a broadcast on the -cores
// placement would resolve them, which matters for placement-keyed table
// rules and for topology-composed schedules; a row whose schedule cannot
// be generated there carries the capability error.
func runCount(cfg *cli.Config, out io.Writer) error {
	sels, err := cfg.Selections()
	if err != nil {
		return err
	}
	by := ""
	if cfg.Table != "" {
		by = " of the decisions of " + sels[0].Label
	}
	fmt.Fprintf(out, "# whole-broadcast schedule traffic%s, n=%d bytes\n", by, cfg.N)
	fmt.Fprintf(out, "%-6s %-30s %12s %14s\n", "P", "algorithm", "messages", "bytes")
	for _, p := range cfg.NP {
		topo, err := cfg.Placement().Map(p)
		if err != nil {
			return err
		}
		for _, s := range sels {
			d := s.Decide(tune.EnvOf(cfg.N, p, topo))
			pr, err := collective.Schedule(d, topo, 0, cfg.N)
			if err != nil {
				fmt.Fprintf(out, "%-6d %-30s %12s %s\n", p, d.Algorithm, "n/a", err)
				continue
			}
			st := pr.Stats()
			fmt.Fprintf(out, "%-6d %-30s %12d %14d\n", p, d.Algorithm, st.Messages, st.Bytes)
		}
	}
	return nil
}

// runRing tabulates the ring-allgather transfer counts of the native
// (enclosed) and tuned (non-enclosed) algorithms — the Section IV claims
// of the paper (P=8: 56 -> 44, P=10: 90 -> 75), generalized over P. With
// -measure the counts are verified by executing both broadcasts on the
// real engine under the traffic tracer.
func runRing(cfg *cli.Config, out io.Writer) error {
	fmt.Fprintf(out, "# ring allgather transfer counts, n=%d bytes (analytic model)\n", cfg.N)
	fmt.Fprint(out, bench.FormatCounts(bench.TransferCounts(cfg.NP, cfg.N)))
	if !cfg.Measure {
		return nil
	}
	fmt.Fprintln(out, "\n# traced execution on the real engine (ring phase only):")
	fmt.Fprintf(out, "%-6s %12s %12s %8s\n", "P", "native-msgs", "tuned-msgs", "match")
	for _, p := range cfg.NP {
		if p > 64 {
			fmt.Fprintf(out, "%-6d %12s %12s %8s\n", p, "-", "-", "skipped")
			continue
		}
		nat, err := tracedRing(tune.RingNative, p, cfg.N)
		if err != nil {
			return err
		}
		opt, err := tracedRing(tune.RingOpt, p, cfg.N)
		if err != nil {
			return err
		}
		wantNat := core.RingTrafficNative(p, cfg.N).Messages
		wantOpt := core.RingTrafficTuned(p, cfg.N).Messages
		match := "OK"
		if int(nat) != wantNat || int(opt) != wantOpt {
			match = fmt.Sprintf("MISMATCH (want %d/%d)", wantNat, wantOpt)
		}
		fmt.Fprintf(out, "%-6d %12d %12d %8s\n", p, nat, opt, match)
	}
	return nil
}

// tracedRing runs one broadcast on the engine and returns the ring-phase
// messages the tracer saw.
func tracedRing(algo string, p, n int) (int64, error) {
	col := trace.NewCollector()
	err := engine.Run(p, func(c mpi.Comm) error {
		return collective.Broadcast(col.WrapSlot(c.Rank(), c), make([]byte, n), 0, collective.Options{Algorithm: algo})
	})
	return col.Stats().ByTag[core.TagRing].Messages, err
}
