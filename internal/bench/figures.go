package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/tune"
)

// The paper's two broadcasts, as the decisions the figures compare.
var (
	// Native is MPI_Bcast_native: binomial scatter + enclosed ring.
	Native = tune.Decision{Algorithm: tune.RingNative}
	// Opt is MPI_Bcast_opt: binomial scatter + non-enclosed ring.
	Opt = tune.Decision{Algorithm: tune.RingOpt}
)

// Series is one curve of a figure: a label and aligned X/Y points.
type Series struct {
	Label string
	X     []int
	Y     []float64
}

// Figure is a reproduced plot: several series over a common x-axis.
type Figure struct {
	ID    string
	Title string
	XName string
	YName string
	Lines []Series
}

// Fig6Sizes is the long-message x-axis of Figure 6: 2^19 .. 2^25 bytes
// (the paper sweeps 524288 to ~30 MB).
func Fig6Sizes() []int {
	var sizes []int
	for n := 1 << 19; n <= 1<<25; n <<= 1 {
		sizes = append(sizes, n)
	}
	return sizes
}

// Fig7Procs and Fig7Sizes are the axes of Figure 7 (throughput speedups
// for non-power-of-two process counts at the dispatcher's threshold
// sizes).
func Fig7Procs() []int { return []int{9, 17, 33, 65, 129} }

// Fig7Sizes returns the three message sizes of Figure 7.
func Fig7Sizes() []int { return []int{12288, 524287, 1048576} }

// Fig8Sizes is Figure 8's x-axis: 12288 to 2560000 bytes with 129
// processes (medium into long messages, doubling).
func Fig8Sizes() []int {
	var sizes []int
	for n := 12288; n <= 2560000; n <<= 1 {
		sizes = append(sizes, n)
	}
	return sizes
}

// nativeAndOpt simulates the paper's two broadcasts at one grid point,
// p ranks placed by pl.
func nativeAndOpt(m SimMeasurer, pl tune.Placement, p, n int) (native, opt Result, err error) {
	topo, err := pl.Map(p)
	if err == nil {
		native, err = MeasureSimDecision(m, Native, topo, n)
	}
	if err == nil {
		opt, err = MeasureSimDecision(m, Opt, topo, n)
	}
	return native, opt, err
}

// Fig6 regenerates one panel of Figure 6: bandwidth versus message size
// for MPI_Bcast_native and MPI_Bcast_opt at the given process count,
// placed by pl.
func Fig6(m SimMeasurer, pl tune.Placement, np int, sizes []int) (Figure, error) {
	if sizes == nil {
		sizes = Fig6Sizes()
	}
	fig := Figure{
		ID:    fmt.Sprintf("fig6-np%d", np),
		Title: fmt.Sprintf("Bandwidth comparison for long messages, np=%d", np),
		XName: "message size (bytes)",
		YName: "bandwidth (MB/s)",
	}
	nat := Series{Label: "MPI_Bcast_native"}
	opt := Series{Label: "MPI_Bcast_opt"}
	for _, n := range sizes {
		rn, ro, err := nativeAndOpt(m, pl, np, n)
		if err != nil {
			return fig, err
		}
		nat.X = append(nat.X, n)
		nat.Y = append(nat.Y, rn.MBps)
		opt.X = append(opt.X, n)
		opt.Y = append(opt.Y, ro.MBps)
	}
	fig.Lines = []Series{nat, opt}
	return fig, nil
}

// Fig7 regenerates Figure 7: the throughput speedup of MPI_Bcast_opt
// over MPI_Bcast_native across non-power-of-two process counts, one
// series per message size.
func Fig7(m SimMeasurer, pl tune.Placement, procs, sizes []int) (Figure, error) {
	if procs == nil {
		procs = Fig7Procs()
	}
	if sizes == nil {
		sizes = Fig7Sizes()
	}
	fig := Figure{
		ID:    "fig7",
		Title: "Throughput speedups of MPI_Bcast_opt over MPI_Bcast_native",
		XName: "number of processes",
		YName: "speedup",
	}
	for _, n := range sizes {
		s := Series{Label: fmt.Sprintf("ms=%d", n)}
		for _, p := range procs {
			rn, ro, err := nativeAndOpt(m, pl, p, n)
			if err != nil {
				return fig, err
			}
			s.X = append(s.X, p)
			s.Y = append(s.Y, rn.Seconds/ro.Seconds)
		}
		fig.Lines = append(fig.Lines, s)
	}
	return fig, nil
}

// Fig8 regenerates Figure 8: bandwidth versus message size for 129
// processes from medium (12288) into long (2560000) messages.
func Fig8(m SimMeasurer, pl tune.Placement, sizes []int) (Figure, error) {
	if sizes == nil {
		sizes = Fig8Sizes()
	}
	fig, err := Fig6(m, pl, 129, sizes)
	if err != nil {
		return fig, err
	}
	fig.ID = "fig8"
	fig.Title = "Bandwidth comparison for medium and long messages, np=129"
	return fig, nil
}

// CountRow is one line of the transfer-count table (the Section IV
// in-text claims generalized over P).
type CountRow struct {
	P             int
	NativeMsgs    int
	TunedMsgs     int
	Saved         int
	SavedPercent  float64
	NativeBytes   int
	TunedBytes    int
	BytesSavedPct float64
}

// TransferCounts tabulates ring-allgather message and byte counts for the
// given process counts at n bytes per broadcast.
func TransferCounts(ps []int, n int) []CountRow {
	rows := make([]CountRow, 0, len(ps))
	for _, p := range ps {
		nat := core.RingTrafficNative(p, n)
		tun := core.RingTrafficTuned(p, n)
		row := CountRow{
			P:          p,
			NativeMsgs: nat.Messages, TunedMsgs: tun.Messages,
			Saved:       nat.Messages - tun.Messages,
			NativeBytes: nat.Bytes, TunedBytes: tun.Bytes,
		}
		if nat.Messages > 0 {
			row.SavedPercent = 100 * float64(row.Saved) / float64(nat.Messages)
		}
		if nat.Bytes > 0 {
			row.BytesSavedPct = 100 * float64(nat.Bytes-tun.Bytes) / float64(nat.Bytes)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFigure renders the figure as an aligned text table, one row per
// x value, one column per series, ready for terminal inspection or
// gnuplot-style consumption.
func FormatFigure(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", fig.ID, fig.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", fig.XName, fig.YName)
	fmt.Fprintf(&b, "%-12s", "x")
	for _, s := range fig.Lines {
		fmt.Fprintf(&b, " %20s", s.Label)
	}
	b.WriteByte('\n')
	if len(fig.Lines) == 0 {
		return b.String()
	}
	for i := range fig.Lines[0].X {
		fmt.Fprintf(&b, "%-12d", fig.Lines[0].X[i])
		for _, s := range fig.Lines {
			fmt.Fprintf(&b, " %20.2f", s.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatCounts renders the transfer-count table.
func FormatCounts(rows []CountRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %8s %8s %14s %14s %8s\n",
		"P", "native-msgs", "tuned-msgs", "saved", "saved%", "native-bytes", "tuned-bytes", "bytes%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %12d %12d %8d %7.1f%% %14d %14d %7.1f%%\n",
			r.P, r.NativeMsgs, r.TunedMsgs, r.Saved, r.SavedPercent,
			r.NativeBytes, r.TunedBytes, r.BytesSavedPct)
	}
	return b.String()
}

// Improvement summarizes how much the second series of a two-line figure
// improves over the first: the maximum and the at-peak gain in percent.
func Improvement(fig Figure) (maxGainPct, peakGainPct float64, err error) {
	if len(fig.Lines) != 2 {
		return 0, 0, fmt.Errorf("bench: improvement needs exactly 2 series, got %d", len(fig.Lines))
	}
	nat, opt := fig.Lines[0], fig.Lines[1]
	var peakNat, peakOpt float64
	for i := range nat.Y {
		if nat.Y[i] > 0 {
			gain := 100 * (opt.Y[i] - nat.Y[i]) / nat.Y[i]
			if gain > maxGainPct {
				maxGainPct = gain
			}
		}
		if nat.Y[i] > peakNat {
			peakNat = nat.Y[i]
		}
		if opt.Y[i] > peakOpt {
			peakOpt = opt.Y[i]
		}
	}
	if peakNat > 0 {
		peakGainPct = 100 * (peakOpt - peakNat) / peakNat
	}
	return maxGainPct, peakGainPct, nil
}
