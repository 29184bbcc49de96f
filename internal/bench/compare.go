package bench

import (
	"fmt"
	"strings"

	"repro/internal/collective"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/tune"
)

// simMeasurer adapts a SimConfig to the auto-tuner's Measurer.
func (cfg SimConfig) simMeasurer() tune.SimMeasurer {
	cfg.fill()
	return tune.SimMeasurer{
		Model:        cfg.Model,
		CoresPerNode: cfg.CoresPerNode,
		Warm:         cfg.Warm,
		Total:        cfg.Total,
		Root:         cfg.Root,
	}
}

// placedMeasurer is simMeasurer pinned to an explicit placement (the
// placement-sweep path); a zero placement falls back to the config's
// blocked default.
func (cfg SimConfig) placedMeasurer(pl tune.Placement) tune.SimMeasurer {
	m := cfg.simMeasurer()
	m.Place = pl
	return m
}

// placedMap realizes a placement for p ranks, defaulting to the config's
// blocked placement when pl is zero.
func (cfg SimConfig) placedMap(pl tune.Placement, p int) (*topology.Map, error) {
	if pl.Kind == "" {
		return topology.Blocked(p, cfg.CoresPerNode), nil
	}
	return pl.Map(p)
}

// FamilyCandidates returns the registry candidates restricted to the
// scatter-ring dispatch family (binomial, scatter-rdb, the two rings and
// their segmented and overlap-aware segmented variants) — the set the
// paper tunes among. Extensions
// like the pipelined chain are excluded, so an auto-tuned table over this
// set is directly comparable to tune.MPICH3's static thresholds.
func FamilyCandidates() []tune.Candidate {
	family := map[string]bool{
		tune.Binomial:     true,
		tune.ScatterRdb:   true,
		tune.RingNative:   true,
		tune.RingOpt:      true,
		tune.RingSeg:      true,
		tune.RingOptSeg:   true,
		tune.RingSegNB:    true,
		tune.RingOptSegNB: true,
	}
	var out []tune.Candidate
	for _, c := range collective.Candidates() {
		if family[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// AutoTuneSim runs the auto-tuner over the registry on the netsim
// cluster model, deriving a tuning table from
// measured crossover points. A nil candidate list tunes over the whole
// registry (collective.Candidates()).
func AutoTuneSim(cfg SimConfig, cands []tune.Candidate, procs, sizes []int) (*tune.Table, []tune.Winner, error) {
	if cands == nil {
		cands = collective.Candidates()
	}
	cfg.fill()
	t, winners, err := tune.AutoTune(cands, cfg.simMeasurer(), procs, sizes)
	if err != nil {
		return nil, nil, err
	}
	t.Description = fmt.Sprintf("%s on netsim model %q, %d cores/node", t.Description, cfg.Model.Name, cfg.CoresPerNode)
	return t, winners, nil
}

// AutoTuneSweepSim runs the segment-size and placement sweep on the
// netsim cluster model: every segmented candidate is measured at every
// swept segment size, the whole grid repeats per placement, and the
// resulting table carries one placement-keyed rule group per placement.
// A nil candidate list sweeps the whole registry.
func AutoTuneSweepSim(cfg SimConfig, cands []tune.Candidate, sweep tune.SweepConfig) (*tune.Table, []tune.Winner, error) {
	if cands == nil {
		cands = collective.Candidates()
	}
	cfg.fill()
	t, winners, err := tune.AutoTuneSweep(cands, func(pl tune.Placement) tune.Measurer {
		return cfg.placedMeasurer(pl)
	}, sweep)
	if err != nil {
		return nil, nil, err
	}
	t.Description = fmt.Sprintf("%s on netsim model %q", t.Description, cfg.Model.Name)
	return t, winners, nil
}

// TunedRow is one point of the tuned-versus-native comparison: what the
// static MPICH3 dispatch picks, what the tuned table picks, and the
// simulated bandwidth of each. Place identifies the swept placement the
// point was evaluated under (zero = the config's blocked default).
type TunedRow struct {
	P, N       int
	Place      tune.Placement
	NativeAlgo string
	TunedAlgo  string
	// TunedSeg is the tuned decision's segment size (0 = none/default).
	TunedSeg   int
	NativeMBps float64
	TunedMBps  float64
	// Speedup is native-time / tuned-time (> 1 where the tuner wins).
	Speedup float64
}

// CompareTuned evaluates a tuning table against MPICH3's static native
// dispatch over a (procs x sizes) grid on the simulated cluster,
// reporting where the auto-tuned selection beats the hardcoded one.
func CompareTuned(cfg SimConfig, table *tune.Table, procs, sizes []int) ([]TunedRow, error) {
	return CompareTunedPlaced(cfg, table, procs, sizes, nil)
}

// CompareTunedPlaced is CompareTuned swept over placements: every grid
// point is re-evaluated under each placement, giving the comparison
// report a per-placement breakdown that mirrors the placement-keyed rule
// groups of AutoTuneSweepSim tables. A nil or empty placement list
// evaluates only the config's blocked default.
func CompareTunedPlaced(cfg SimConfig, table *tune.Table, procs, sizes []int, placements []tune.Placement) ([]TunedRow, error) {
	cfg.fill()
	if len(placements) == 0 {
		placements = []tune.Placement{{}}
	}
	native := tune.MPICH3{}
	tuned := tune.TableTuner{Table: table, Fallback: native}

	var rows []TunedRow
	for _, pl := range placements {
		for _, p := range procs {
			topo, err := cfg.placedMap(pl, p)
			if err != nil {
				return nil, err
			}
			for _, n := range sizes {
				e := tune.EnvOf(n, p, topo)
				nd := native.Decide(e)
				td := tuned.Decide(e)
				nt, err := simDecisionOn(cfg, nd, p, n, topo)
				if err != nil {
					return nil, fmt.Errorf("bench: native %q at (p=%d, n=%d): %w", nd.Algorithm, p, n, err)
				}
				tt, err := simDecisionOn(cfg, td, p, n, topo)
				if err != nil {
					return nil, fmt.Errorf("bench: tuned %q at (p=%d, n=%d): %w", td.Algorithm, p, n, err)
				}
				row := TunedRow{
					P: p, N: n, Place: pl,
					NativeAlgo: nd.Algorithm, TunedAlgo: td.Algorithm, TunedSeg: td.SegSize,
					NativeMBps: newResult(n, nt).MBps,
					TunedMBps:  newResult(n, tt).MBps,
				}
				if tt > 0 {
					row.Speedup = nt / tt
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// MeasureSimDecision predicts the bandwidth of a registry decision on
// the modelled cluster under the config's blocked placement.
func MeasureSimDecision(cfg SimConfig, d tune.Decision, p, n int) (Result, error) {
	cfg.fill()
	dt, err := simDecisionOn(cfg, d, p, n, topology.Blocked(p, cfg.CoresPerNode))
	if err != nil {
		return Result{}, err
	}
	return newResult(n, dt), nil
}

// simDecisionOn predicts the steady-state per-iteration time of a
// decided algorithm on the modelled cluster over an explicit placement.
func simDecisionOn(cfg SimConfig, d tune.Decision, p, n int, topo *topology.Map) (float64, error) {
	cfg.fill()
	pr, err := collective.Schedule(d, topo, cfg.Root, n)
	if err != nil {
		return 0, err
	}
	return netsim.SteadyStateIterTime(pr, topo, cfg.Model, cfg.Warm, cfg.Total)
}

// FormatTunedRows renders the comparison as an aligned table, grouped by
// placement when the rows carry a placement breakdown.
func FormatTunedRows(rows []TunedRow) string {
	var b strings.Builder
	header := func() {
		fmt.Fprintf(&b, "%-6s %-10s %-30s %-34s %12s %12s %8s\n",
			"P", "bytes", "native-dispatch", "tuned-dispatch", "native-MB/s", "tuned-MB/s", "speedup")
	}
	lastPlace := ""
	headed := false
	for _, r := range rows {
		if pl := r.Place.String(); r.Place.Kind != "" && pl != lastPlace {
			fmt.Fprintf(&b, "# placement %s\n", pl)
			lastPlace = pl
			header()
			headed = true
		} else if !headed {
			header()
			headed = true
		}
		marker := ""
		if r.Speedup > 1.005 && r.TunedAlgo != r.NativeAlgo {
			marker = " *"
		}
		fmt.Fprintf(&b, "%-6d %-10d %-30s %-34s %12.2f %12.2f %7.3fx%s\n",
			r.P, r.N, r.NativeAlgo, decisionLabel(tune.Decision{Algorithm: r.TunedAlgo, SegSize: r.TunedSeg}), r.NativeMBps, r.TunedMBps, r.Speedup, marker)
	}
	b.WriteString("# * = auto-tuned table picked a different algorithm and won\n")
	return b.String()
}

// decisionLabel renders a decision compactly, appending the segment size
// when one is set (e.g. "scatter-ring-allgather-opt-seg@65536").
func decisionLabel(d tune.Decision) string {
	if d.SegSize > 0 {
		return fmt.Sprintf("%s@%d", d.Algorithm, d.SegSize)
	}
	return d.Algorithm
}

// FormatWinners renders the auto-tuner's raw grid decisions, including
// the winning segment size and the measured placement classification.
func FormatWinners(ws []tune.Winner) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-18s %-34s %14s\n", "P", "bytes", "placement", "winner", "us/iter")
	for _, w := range ws {
		pl := tune.Placement{Kind: w.Env.Placement, CoresPerNode: w.Env.CoresPerNode}
		place := "-"
		if pl.Kind != "" {
			place = pl.String()
		}
		fmt.Fprintf(&b, "%-6d %-10d %-18s %-34s %14.2f\n",
			w.Procs, w.Bytes, place, decisionLabel(w.Decision), w.Seconds*1e6)
	}
	return b.String()
}
