package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tune"
)

// runViz renders the paper's schematic figures from the actual schedule
// generators: the binomial scatter tree (Figures 1-2) and the per-step
// send/receive events of the ring allgather (Figure 3 for the enclosed
// ring, Figures 4-5 for the tuned non-enclosed ring, where the send-only
// and receive-only degenerations are visible as missing events).
func runViz(cfg *cli.Config, out io.Writer) error {
	sels, err := cfg.Selections()
	if err != nil {
		return err
	}
	for _, p := range cfg.NP {
		drawScatter(out, p, cfg.Root)
		for _, s := range sels {
			name, bcast := "ring-allgather-native", core.BcastNativeOps
			if s.Algorithm == tune.RingOpt {
				name, bcast = "ring-allgather-tuned", core.BcastOptOps
			}
			// One unit byte per chunk, so offsets read as chunk indices.
			drawRing(out, sched.Generate(name, bcast, p, cfg.Root, p, 0), p, cfg.Root)
		}
	}
	return nil
}

// drawScatter prints the binomial scatter tree with each rank's chunk
// range.
func drawScatter(out io.Writer, p, root int) {
	fmt.Fprintf(out, "binomial scatter tree, P=%d, root=%d (chunks each rank holds afterwards):\n", p, root)
	for rel := 0; rel < p; rel++ {
		rank := core.AbsRank(rel, root, p)
		lo, hi := core.OwnedChunks(rel, p)
		depth := 0
		for x := rel; x != 0; x -= x & (-x) {
			depth++
		}
		indent := strings.Repeat("  ", depth)
		parent := ""
		if rel != 0 {
			parent = fmt.Sprintf("  <- from rank %d", core.AbsRank(rel-rel&(-rel), root, p))
		}
		fmt.Fprintf(out, "  %srank %-3d chunks [%d..%d)%s\n", indent, rank, lo, hi, parent)
	}
	fmt.Fprintln(out)
}

// drawRing prints one line per ring step (Step >= 1; the scatter's ops
// are step 0) of a broadcast with each rank's events, like the figures:
// "s5" = sends chunk 5 to the right, "r3" = receives chunk 3 from the
// left, "." = no event (the tuned ring's saved transfers).
func drawRing(out io.Writer, pr *sched.Program, p, root int) {
	fmt.Fprintf(out, "%s, P=%d, root=%d (s<chunk> = send right, r<chunk> = recv left):\n", pr.Name, p, root)
	fmt.Fprintf(out, "  %-6s", "step")
	for r := 0; r < p; r++ {
		fmt.Fprintf(out, " %8s", fmt.Sprintf("rank%d", r))
	}
	fmt.Fprintln(out)
	// Index ops by (rank, step).
	byStep := make([]map[int]sched.Op, p)
	maxStep := 0
	for r := 0; r < p; r++ {
		byStep[r] = map[int]sched.Op{}
		for _, op := range pr.OpsOf(r) {
			byStep[r][op.Step] = op
			if op.Step > maxStep {
				maxStep = op.Step
			}
		}
	}
	totalMsgs := 0
	for step := 1; step <= maxStep; step++ {
		fmt.Fprintf(out, "  %-6d", step)
		for r := 0; r < p; r++ {
			op, ok := byStep[r][step]
			cell := "."
			if ok {
				var parts []string
				if op.Kind == sched.OpSend || op.Kind == sched.OpSendrecv {
					parts = append(parts, fmt.Sprintf("s%d", op.SendOff))
					totalMsgs++
				}
				if op.Kind == sched.OpRecv || op.Kind == sched.OpSendrecv {
					parts = append(parts, fmt.Sprintf("r%d", op.RecvOff))
				}
				cell = strings.Join(parts, "/")
			}
			fmt.Fprintf(out, " %8s", cell)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  total ring messages: %d\n\n", totalMsgs)
}
