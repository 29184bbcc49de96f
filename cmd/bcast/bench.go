package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/bcast"
	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/metrics"
)

// runBench is the paper's user-level benchmark through the public facade:
// per rank count and selection one cluster — and the world it boots —
// reused across every message size, so after the first row each printed
// bandwidth is steady state. -persistent changes only what the timed loop
// calls, so the two call styles compare per-call selection against a
// resolved handle and nothing else.
func runBench(cfg *cli.Config, out io.Writer) error {
	sels, err := cfg.Selections()
	if err != nil {
		return err
	}
	style := "user-level"
	if cfg.Persistent {
		style = "persistent"
	}
	ctx := context.Background()
	for _, np := range cfg.NP {
		for _, sel := range sels {
			if err := benchCluster(ctx, cfg, np, sel, style, out); err != nil {
				return fmt.Errorf("np=%d %s: %w", np, sel.Label, err)
			}
		}
	}
	return nil
}

func benchCluster(ctx context.Context, cfg *cli.Config, np int, sel cli.Selection, style string, out io.Writer) error {
	cl, err := bcast.NewCluster(ctx, cfg.ClusterOptions(np, sel)...)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Fprintf(out, "# %s bcast benchmark: %s, np=%d, iters=%d, exec=%s, transport=%s\n",
		style, sel.Label, np, cfg.Iters, cl.Executor(), cl.Transport())
	fmt.Fprintf(out, "%-12s %14s %14s\n", "bytes", "us/iter", "MB/s")
	for _, n := range cfg.Sizes() {
		elapsed, err := timeBcasts(ctx, cl, cfg, n)
		if err != nil {
			return fmt.Errorf("size %d: %w", n, err)
		}
		res := bench.NewResult(n, elapsed.Seconds()/float64(cfg.Iters))
		fmt.Fprintf(out, "%-12d %14.2f %14.2f\n", n, res.Seconds*1e6, res.MBps)
	}
	return report(out, cl.Metrics(), cfg)
}

// timeBcasts runs the paper's protocol for one message size on a live
// cluster — barrier, cfg.Iters broadcasts back to back, barrier — and
// returns the root's elapsed wall clock. The loop body is Comm.Bcast or,
// with -persistent, Start/Wait on one handle resolved before the clock
// starts.
func timeBcasts(ctx context.Context, cl *bcast.Cluster, cfg *cli.Config, n int) (time.Duration, error) {
	var elapsed time.Duration // written by the root's rank only
	err := cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == cfg.Root {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		once := func() error { return c.Bcast(ctx, buf, cfg.Root) }
		free := func() error { return nil }
		if cfg.Persistent {
			ph, err := c.BcastInit(buf, cfg.Root)
			if err != nil {
				return err
			}
			once, free = func() error { return ph.Run(ctx) }, ph.Free
		}
		// One untimed round populates the pooled staging classes.
		if err := once(); err != nil {
			return err
		}
		if err := c.Barrier(ctx); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < cfg.Iters; i++ {
			if err := once(); err != nil {
				return err
			}
		}
		if err := c.Barrier(ctx); err != nil {
			return err
		}
		if c.Rank() == cfg.Root {
			elapsed = time.Since(start)
		}
		return free()
	})
	return elapsed, err
}

// report prints the snapshot and writes the Chrome trace, as asked.
func report(out io.Writer, s metrics.Snapshot, cfg *cli.Config) error {
	if cfg.Metrics {
		fmt.Fprintln(out, s.String())
	}
	if cfg.Timeline == "" {
		return nil
	}
	var trace bytes.Buffer
	if err := s.WriteChromeTrace(&trace); err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Timeline, trace.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "# %d spans written to %s (open in Perfetto or chrome://tracing)\n", len(s.Spans), cfg.Timeline)
	return nil
}

// runSpans loads a Chrome trace written by bench -timeline and prints
// per-operation latency percentiles, without re-running anything.
func runSpans(cfg *cli.Config, out io.Writer) error {
	path := cfg.Args[0]
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := metrics.LoadChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(out, "# span summary of %s (%d spans):\n", path, len(spans))
	fmt.Fprint(out, metrics.SummarizeSpans(spans))
	return nil
}
