package engine_test

import (
	"context"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"
	"unsafe"

	"repro/bcast"
	"repro/internal/engine"
	"repro/internal/testutil"
)

// TestRankStacksStayPut: a rank goroutine grows its stack once, before
// its body runs, so no rank's stack moves between its first frame and
// its return. It checks two cold worlds through the facade:
// short-percall-np16's shape (NewCluster, a Run of four per-call 1 KiB
// broadcasts, Close) and msgrate-np64's (NewCluster, a Run of BcastInit
// and four broadcasts, Close). The stack probe records the address of
// its own frame's local, which sits at the same depth at both calls, so
// the two addresses differ exactly when the stack was copied between
// them. The garbage collector is off, because a collection may shrink a
// parked rank's stack, and that is not a growth.
func TestRankStacksStayPut(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation changes every frame's size")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sample := []metrics.Sample{{Name: "/gc/stack/starting-size:bytes"}}
	metrics.Read(sample)
	t.Logf("goroutines start on %d-byte stacks", sample[0].Value.Uint64())

	const maxNP = 64
	var at [maxNP]uintptr
	var moved [maxNP]bool
	defer engine.SetStackProbe(func(rank int) {
		var here byte
		sp := uintptr(unsafe.Pointer(&here))
		if at[rank] == 0 {
			at[rank] = sp
			return
		}
		moved[rank] = moved[rank] || at[rank] != sp
		at[rank] = 0
	})()

	ctx := context.Background()
	for _, w := range []struct {
		name       string
		np, n      int
		persistent bool
		opts       []bcast.Option
	}{
		{"percall-np16", 16, 1 << 10, false, []bcast.Option{bcast.Tuner(bcast.MPICH3Tuner(true))}},
		{"persistent-np64", 64, 4 << 10, true, []bcast.Option{
			bcast.Placement("blocked:32"), bcast.Algorithm(bcast.RingOptSeg), bcast.SegSize(8 << 10)}},
	} {
		moved = [maxNP]bool{}
		bufs := make([][]byte, w.np)
		for r := range bufs {
			bufs[r] = make([]byte, w.n)
		}
		cl, err := bcast.NewCluster(ctx, append(w.opts, bcast.Procs(w.np), bcast.Timeout(time.Minute))...)
		if err != nil {
			t.Fatal(err)
		}
		err = cl.Run(ctx, func(c bcast.Comm) error {
			buf := bufs[c.Rank()]
			if !w.persistent {
				for range 4 {
					if err := c.Bcast(ctx, buf, 0); err != nil {
						return err
					}
				}
				return nil
			}
			ph, err := c.BcastInit(buf, 0)
			if err != nil {
				return err
			}
			for range 4 {
				if err := ph.Run(ctx); err != nil {
					return err
				}
			}
			return ph.Free()
		})
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var ranks []int
		for r, m := range moved[:w.np] {
			if m {
				ranks = append(ranks, r)
			}
		}
		if len(ranks) > 0 {
			t.Errorf("%s: the stacks of %d of %d ranks moved after their first frame: %v", w.name, len(ranks), w.np, ranks)
		}
	}
}
