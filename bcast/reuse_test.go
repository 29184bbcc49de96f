package bcast_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/bcast"
	"repro/internal/testutil"
)

type reuseCell struct {
	name      string
	placement string
	pooled    bool
}

// reuseGridCells is the {executor} x {placement} grid the reuse tests
// sweep: world reuse must be invisible on every rank-execution
// substrate and every placement shape.
func reuseGridCells() []reuseCell {
	return []reuseCell{
		{"goroutine/single", "single", false},
		{"goroutine/blocked", "blocked:8", false},
		{"goroutine/round-robin", "round-robin:8", false},
		{"pooled/single", "single", true},
		{"pooled/blocked", "blocked:8", true},
		{"pooled/round-robin", "round-robin:8", true},
	}
}

// reuseWorkload broadcasts a deterministic n-byte payload with the
// paper's segmented tuned ring and deposits every rank's final buffer
// into out[rank]. out is indexed disjointly per rank and Run's join
// orders the writes before the caller's reads.
func reuseWorkload(ctx context.Context, cl *bcast.Cluster, n int, out [][]byte) error {
	return cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i*7 + 3)
			}
		}
		if err := c.Bcast(ctx, buf, 0); err != nil {
			return err
		}
		out[c.Rank()] = buf
		return nil
	})
}

func reuseClusterOpts(cell reuseCell, np, seg int) []bcast.Option {
	opts := []bcast.Option{
		bcast.Procs(np),
		bcast.Placement(cell.placement),
		bcast.Algorithm(bcast.RingOptSeg),
		bcast.SegSize(seg),
		bcast.TraceTraffic(),
	}
	if cell.pooled {
		opts = append(opts, bcast.ExecPooled(0))
	}
	return opts
}

// TestClusterReuseParity is the reuse-parity grid: for every executor x
// placement cell, the Nth Run on a reused cluster must deliver byte-
// identical buffers and (per-run) identical traced traffic to a single
// Run on a fresh cluster — world reuse is a pure optimization with no
// observable protocol difference. Each cell runs with 1 KiB segments and
// again with 8 KiB chunks and segments, where the executor posts the
// ring's receives ahead of their ops and the traced receive count must
// still equal the send count.
func TestClusterReuseParity(t *testing.T) {
	const (
		np   = 16
		runs = 5
	)
	for _, cell := range reuseGridCells() {
		t.Run(cell.name, func(t *testing.T) {
			for _, size := range []struct{ n, seg int }{{8 << 10, 1 << 10}, {128 << 10, 8 << 10}} {
				reuseParity(t, cell, np, runs, size.n, size.seg)
			}
		})
	}
}

// reuseParity is one cell of TestClusterReuseParity at one (n, seg).
func reuseParity(t *testing.T, cell reuseCell, np, runs, n, seg int) {
	t.Helper()
	ctx := context.Background()
	// Fresh cluster: exactly one Run.
	fresh, err := bcast.NewCluster(ctx, reuseClusterOpts(cell, np, seg)...)
	if err != nil {
		t.Fatal(err)
	}
	freshOut := make([][]byte, np)
	if err := reuseWorkload(ctx, fresh, n, freshOut); err != nil {
		t.Fatal(err)
	}
	freshTraffic, ok := fresh.Traffic()
	if !ok {
		t.Fatal("fresh cluster: no traffic trace")
	}

	// Reused cluster: the same workload, runs times over.
	reused, err := bcast.NewCluster(ctx, reuseClusterOpts(cell, np, seg)...)
	if err != nil {
		t.Fatal(err)
	}
	lastOut := make([][]byte, np)
	for i := 0; i < runs; i++ {
		if err := reuseWorkload(ctx, reused, n, lastOut); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if boots := reused.Boots(); boots != 1 {
		t.Errorf("Boots() = %d after %d clean runs, want 1", boots, runs)
	}

	for r := 0; r < np; r++ {
		if !bytes.Equal(freshOut[r], lastOut[r]) {
			t.Errorf("rank %d: reused run buffer differs from fresh run", r)
		}
	}

	// The collector accumulates across runs, so the reused
	// cluster's totals must be exactly runs x one run's traffic —
	// which both checks reuse against fresh parity and that no
	// run leaked extra (or dropped) messages.
	reusedTraffic, ok := reused.Traffic()
	if !ok {
		t.Fatal("reused cluster: no traffic trace")
	}
	want := bcast.Traffic{
		Messages: freshTraffic.Messages * int64(runs), Bytes: freshTraffic.Bytes * int64(runs),
		IntraMessages: freshTraffic.IntraMessages * int64(runs), IntraBytes: freshTraffic.IntraBytes * int64(runs),
		InterMessages: freshTraffic.InterMessages * int64(runs), InterBytes: freshTraffic.InterBytes * int64(runs),
		Recvs: freshTraffic.Recvs * int64(runs),
	}
	if !reflect.DeepEqual(reusedTraffic, want) {
		t.Errorf("traced traffic after %d reused runs = %+v, want %d x fresh run = %+v",
			runs, reusedTraffic, runs, want)
	}

	// Clean runs deliver every sent message: the traced receive
	// count must equal the send count, on both clusters, through
	// the metrics snapshot as well as Traffic.
	for _, c := range []struct {
		label string
		cl    *bcast.Cluster
	}{{"fresh", fresh}, {"reused", reused}} {
		tr := c.cl.Metrics().Traffic
		if tr == nil {
			t.Fatalf("%s cluster: snapshot has no traffic", c.label)
		}
		if tr.Recvs != tr.Messages {
			t.Errorf("%s cluster: traced recvs=%d != messages=%d after clean runs",
				c.label, tr.Recvs, tr.Messages)
		}
	}
}

// TestClusterReuseFallbackAfterAbort checks the documented fallback: a
// failed Run retires the booted world, the next Run transparently boots
// a fresh one, and Boots counts the transition.
func TestClusterReuseFallbackAfterAbort(t *testing.T) {
	const np = 8
	ctx := context.Background()
	cl, err := bcast.NewCluster(ctx, bcast.Procs(np), bcast.Placement("blocked:4"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, np)
	if err := reuseWorkload(ctx, cl, 1<<10, out); err != nil {
		t.Fatal(err)
	}
	if boots := cl.Boots(); boots != 1 {
		t.Fatalf("Boots() = %d after first clean run, want 1", boots)
	}

	boom := errors.New("boom")
	err = cl.Run(ctx, func(c bcast.Comm) error {
		if c.Rank() == 3 {
			return boom
		}
		buf := make([]byte, 1<<10)
		return c.Bcast(ctx, buf, 0)
	})
	if err == nil {
		t.Fatal("aborted run: want error")
	}

	// The next Run must succeed on a fresh world.
	if err := reuseWorkload(ctx, cl, 1<<10, out); err != nil {
		t.Fatalf("run after abort: %v", err)
	}
	for r := 1; r < np; r++ {
		if !bytes.Equal(out[0], out[r]) {
			t.Fatalf("rank %d: buffer differs after fallback boot", r)
		}
	}
	if boots := cl.Boots(); boots != 2 {
		t.Fatalf("Boots() = %d after abort + clean run, want 2", boots)
	}
}

// TestClusterReuseNoLeak reuses one cluster for 100 runs on each
// substrate and asserts the goroutine count returns to baseline: an
// idle reused world parks nothing — rank bodies, watchdogs and workers
// are all per-Run.
func TestClusterReuseNoLeak(t *testing.T) {
	const (
		np   = 8
		runs = 100
	)
	ctx := context.Background()
	for _, pooled := range []bool{false, true} {
		name := "goroutine"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			opts := []bcast.Option{bcast.Procs(np), bcast.Placement("blocked:4")}
			if pooled {
				opts = append(opts, bcast.ExecPooled(0))
			}
			cl, err := bcast.NewCluster(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out := make([][]byte, np)
			for i := 0; i < runs; i++ {
				if err := reuseWorkload(ctx, cl, 1<<10, out); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			if boots := cl.Boots(); boots != 1 {
				t.Errorf("Boots() = %d after %d clean runs, want 1", boots, runs)
			}
			for r := 1; r < np; r++ {
				if !bytes.Equal(out[0], out[r]) {
					t.Fatalf("rank %d: buffer differs", r)
				}
			}
			testutil.WaitGoroutines(t, base)
		})
	}
}
