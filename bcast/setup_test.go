package bcast_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/bcast"
	"repro/internal/bufpool"
	"repro/internal/testutil"
)

// initShape is msgrate-np64's cluster: 64 ranks two nodes of 32, a 4 KiB
// opt-seg broadcast in 8 KiB segments, so 64 B chunks on bound edges.
func initShape(np int) []bcast.Option {
	return []bcast.Option{
		bcast.Procs(np),
		bcast.Placement("blocked:32"),
		bcast.Algorithm(bcast.RingOptSeg),
		bcast.SegSize(8 << 10),
		bcast.Timeout(time.Minute),
	}
}

// initOnly boots a cluster of opts, runs one Run whose ranks only call
// BcastInit on their buffer, and closes it.
func initOnly(tb testing.TB, bufs [][]byte, opts []bcast.Option) {
	tb.Helper()
	ctx := context.Background()
	cl, err := bcast.NewCluster(ctx, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	err = cl.Run(ctx, func(c bcast.Comm) error {
		_, err := c.BcastInit(bufs[c.Rank()], 0)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestColdBcastInitAllocs: a persistent broadcast's set-up allocates
// little beyond what its Plan keeps — the rank's ops once, at their
// length, and its edges' bookkeeping — on msgrate-np64's shape. A cold
// cluster (boot, a Run that only calls BcastInit, Close) allocates
// ~11 KiB per rank. The 16 KiB budget fails a Plan whose ops grow by
// doubling while Elide walks the rank's destinations in them, or a Run
// whose end drops a never-freed handle's cells to the garbage collector
// (~34 KiB per rank with both).
func TestColdBcastInitAllocs(t *testing.T) {
	const np, clusters, budget = 64, 20, 16 << 10
	bufs := make([][]byte, np)
	for r := range bufs {
		bufs[r] = make([]byte, 4<<10)
	}
	opts := initShape(np)
	initOnly(t, bufs, opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range clusters {
		initOnly(t, bufs, opts)
	}
	runtime.ReadMemStats(&after)
	perRank := (after.TotalAlloc - before.TotalAlloc) / clusters / np
	t.Logf("a cold BcastInit-only cluster allocated %d B per rank (%d objects)", perRank, (after.Mallocs-before.Mallocs)/clusters/np)
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race: the clusters ran, the budget is not judged")
	}
	if perRank > budget {
		t.Errorf("a cold BcastInit-only cluster allocated %d B per rank, budget %d", perRank, budget)
	}
}

// TestRunEndReturnsHandleCells: a handle that is never freed lets its
// edges go when its rank's body returns, so their cells go back to
// bufpool and the next world's BcastInit draws its cells from there. Two
// clusters run back to back, each with a never-freed handle, the garbage
// collector off so the pool keeps what it is given; in the second,
// every cell class BcastInit draws from may miss at most once per P
// (sync.Pool keeps one object per P out of the other Ps' reach). A third
// frees its handle inside the Run: released then, it must not be
// released again at the end, which would give bufpool its cells twice.
func TestRunEndReturnsHandleCells(t *testing.T) {
	const np = 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	bufs := make([][]byte, np)
	for r := range bufs {
		bufs[r] = make([]byte, 4<<10)
	}
	var during [2][]bufpool.ClassStats // bufpool before and after BcastInit
	// run runs a cluster whose ranks build a handle, run it and, with
	// free, free it, and returns the buffers the Run drew from bufpool
	// and gave back.
	run := func(free bool) (gets, puts int64) {
		cl, err := bcast.NewCluster(ctx, bcast.Procs(np), bcast.Algorithm(bcast.RingOptSeg), bcast.SegSize(8<<10), bcast.Timeout(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		start, _, _ := bufpool.Stats()
		err = cl.Run(ctx, func(c bcast.Comm) error {
			// Rank 0 reads bufpool while every rank waits in a barrier.
			stats := func(into *[]bufpool.ClassStats) error {
				if err := c.Barrier(ctx); err != nil {
					return err
				}
				if c.Rank() == 0 {
					*into, _, _ = bufpool.Stats()
				}
				return c.Barrier(ctx)
			}
			if err := stats(&during[0]); err != nil {
				return err
			}
			h, err := c.BcastInit(bufs[c.Rank()], 0)
			if err != nil {
				return err
			}
			if err := stats(&during[1]); err != nil {
				return err
			}
			if err := h.Run(ctx); err != nil {
				return err
			}
			if free {
				return h.Free()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		end, _, _ := bufpool.Stats()
		for _, d := range diff(start, end) {
			gets, puts = gets+d.Gets, puts+d.Puts
		}
		return gets, puts
	}
	run(false)
	gets, puts := run(false)
	drew := diff(during[0], during[1])
	for _, d := range drew {
		t.Logf("BcastInit drew %d cells of %d B, %d of them fresh", d.Gets, d.Size, d.Misses)
	}
	t.Logf("the Run drew %d buffers from bufpool and gave back %d", gets, puts)
	freedGets, freedPuts := run(true)
	t.Logf("a Run freeing its handle drew %d buffers from bufpool and gave back %d", freedGets, freedPuts)
	if testutil.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random: the Runs ran, reuse is not judged")
	}
	if len(drew) == 0 {
		t.Fatal("BcastInit drew no cells: the handle bound no edges")
	}
	for _, d := range drew {
		if d.Misses > int64(runtime.GOMAXPROCS(0)) {
			t.Errorf("BcastInit drew %d of %d cells of %d B fresh, want at most GOMAXPROCS (%d)", d.Misses, d.Gets, d.Size, runtime.GOMAXPROCS(0))
		}
	}
	if puts != gets {
		t.Errorf("a Run ending with its handle live drew %d buffers from bufpool and gave back %d, want each back once", gets, puts)
	}
	if freedPuts != freedGets {
		t.Errorf("a Run freeing its handle drew %d buffers from bufpool and gave back %d, want each back once", freedGets, freedPuts)
	}
}

// diff returns, per bufpool class active in b, its counts in b less
// those in a; classes with no get between them are left out.
func diff(a, b []bufpool.ClassStats) []bufpool.ClassStats {
	var out []bufpool.ClassStats
	for _, y := range b {
		for _, x := range a {
			if x.Size == y.Size {
				y.Gets, y.Puts, y.Misses = y.Gets-x.Gets, y.Puts-x.Puts, y.Misses-x.Misses
				break
			}
		}
		if y.Gets > 0 {
			out = append(out, y)
		}
	}
	return out
}
