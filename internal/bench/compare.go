package bench

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/collective"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/tune"
)

// FamilyCandidates returns the registry candidates restricted to the
// scatter-ring dispatch family (binomial, scatter-rdb, the two rings and
// their segmented variants) — the set the paper tunes among. Extensions
// like the pipelined chain are excluded, so an auto-tuned table over this
// set is directly comparable to tune.MPICH3's static thresholds.
func FamilyCandidates() []tune.Candidate {
	family := map[string]bool{
		tune.Binomial:   true,
		tune.ScatterRdb: true,
		tune.RingNative: true,
		tune.RingOpt:    true,
		tune.RingSeg:    true,
		tune.RingOptSeg: true,
	}
	var out []tune.Candidate
	for _, c := range collective.Candidates() {
		if family[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// SimMeasurer measures decisions on the netsim virtual-time cluster
// model — fast enough for paper-scale grids (hundreds of ranks, tens of
// megabytes) on a laptop. It implements tune.Measurer.
type SimMeasurer struct {
	// Model is the cluster calibration (netsim.Hornet() when nil).
	Model *netsim.Model
	// Warm and Total bound the steady-state replication (defaults 2, 6).
	Warm, Total int
	// Root is the broadcast root.
	Root int
}

func (m SimMeasurer) fill() SimMeasurer {
	if m.Model == nil {
		m.Model = netsim.Hornet()
	}
	if m.Warm <= 0 {
		m.Warm = 2
	}
	if m.Total <= m.Warm {
		m.Total = m.Warm + 4
	}
	return m
}

// Measure implements tune.Measurer: the modelled steady-state time of
// the decision's whole schedule (collective.Schedule) over topo.
func (m SimMeasurer) Measure(d tune.Decision, topo *topology.Map, n int) (float64, error) {
	m = m.fill()
	pr, err := collective.Schedule(d, topo, m.Root, n)
	if err != nil {
		return 0, fmt.Errorf("bench: %q at (p=%d, n=%d): %w", d.Algorithm, topo.NP(), n, err)
	}
	return netsim.SteadyStateIterTime(pr, topo, m.Model, m.Warm, m.Total)
}

// Describe names the measurement substrate for a table's provenance.
func (m SimMeasurer) Describe() string {
	return fmt.Sprintf("on netsim model %q", m.fill().Model.Name)
}

// TunedRow is one point of the tuned-versus-native comparison: what the
// static MPICH3 dispatch picks, what the tuned table picks, and the
// simulated bandwidth of each. Place identifies the swept placement the
// point was evaluated under (zero = the grid's unswept Place).
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
// dispatch over the (placements x procs x sizes) grid of sweep on the
// simulated cluster, reporting where the auto-tuned selection beats the
// hardcoded one. Every grid point is re-evaluated under each placement,
// mirroring the placement-keyed rule groups of the tables AutoTune
// emits; without placements only sweep.Place is evaluated. A tuned
// decision equal to the native one is simulated once.
func CompareTuned(m SimMeasurer, table *tune.Table, sweep tune.SweepConfig) ([]TunedRow, error) {
	placements := sweep.Placements
	if len(placements) == 0 {
		placements = []tune.Placement{{}}
	}
	native := tune.MPICH3{}
	tuned := tune.TableTuner{Table: table, Fallback: native}

	var rows []TunedRow
	for _, pl := range placements {
		for _, p := range sweep.Procs {
			topo, err := cmp.Or(pl, sweep.Place).Map(p)
			if err != nil {
				return nil, err
			}
			for _, n := range sweep.Sizes {
				e := tune.EnvOf(n, p, topo)
				nd := native.Decide(e)
				td := tuned.Decide(e)
				nr, err := MeasureSimDecision(m, nd, topo, n)
				if err != nil {
					return nil, fmt.Errorf("bench: native %q at (p=%d, n=%d): %w", nd.Algorithm, p, n, err)
				}
				tr := nr
				if td != nd {
					if tr, err = MeasureSimDecision(m, td, topo, n); err != nil {
						return nil, fmt.Errorf("bench: tuned %q at (p=%d, n=%d): %w", td.Algorithm, p, n, err)
					}
				}
				row := TunedRow{
					P: p, N: n, Place: pl,
					NativeAlgo: nd.Algorithm, TunedAlgo: td.Algorithm, TunedSeg: td.SegSize,
					NativeMBps: nr.MBps, TunedMBps: tr.MBps,
				}
				if tr.Seconds > 0 {
					row.Speedup = nr.Seconds / tr.Seconds
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// MeasureSimDecision predicts the steady-state bandwidth of a registry
// decision on the modelled cluster over topo.
func MeasureSimDecision(m SimMeasurer, d tune.Decision, topo *topology.Map, n int) (Result, error) {
	dt, err := m.Measure(d, topo, n)
	if err != nil {
		return Result{}, err
	}
	return NewResult(n, dt), nil
}

// FormatTunedRows renders the comparison as an aligned table, one
// section per placement when the rows carry a placement breakdown.
func FormatTunedRows(rows []TunedRow) string {
	var b strings.Builder
	for i, r := range rows {
		if i == 0 || r.Place != rows[i-1].Place {
			if r.Place.Kind != "" {
				fmt.Fprintf(&b, "# placement %s\n", r.Place)
			}
			fmt.Fprintf(&b, "%-6s %-10s %-30s %-34s %12s %12s %8s\n",
				"P", "bytes", "native-dispatch", "tuned-dispatch", "native-MB/s", "tuned-MB/s", "speedup")
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

// placeLabel renders the placement an environment was measured under in
// the CLI syntax ("-" when the measurer reported none).
func placeLabel(e tune.Env) string {
	if e.Placement == "" {
		return "-"
	}
	return tune.Placement{Kind: e.Placement, CoresPerNode: e.CoresPerNode}.String()
}

// FormatWinners renders the auto-tuner's raw grid decisions, including
// the winning segment size and the measured placement classification.
func FormatWinners(ws []tune.Winner) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-18s %-34s %14s\n", "P", "bytes", "placement", "winner", "us/iter")
	for _, w := range ws {
		fmt.Fprintf(&b, "%-6d %-10d %-18s %-34s %14.2f\n",
			w.Procs, w.Bytes, placeLabel(w.Env), decisionLabel(w.Decision), w.Seconds*1e6)
	}
	return b.String()
}
