package sched_test

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/testutil"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestElideWritesOnlyWhatItReturns: an elided emitter appends its kept
// ops to dst and touches none of dst's spare capacity past them, on
// every registry row's emitter elided, every root, and a few sizes and
// segments. A caller may hand it the spare capacity of a slice whose
// tail it still reads.
func TestElideWritesOnlyWhatItReturns(t *testing.T) {
	sentinel := sched.Op{Kind: sched.OpSendrecv, To: -7, From: -7, Tag: -7, Step: -7}
	prefix := sched.Op{Kind: sched.OpSend, To: -1, Tag: -1}
	buf := make([]sched.Op, 1<<9)
	for i := range buf {
		buf[i] = sentinel
	}
	for _, r := range collective.Algorithms() {
		segs := []int{0}
		if r.Caps.Segmented {
			segs = []int{0, 64, 1000}
		}
		for p := 1; p <= 24; p++ {
			topo := topology.Blocked(p, 4)
			e := r.Ops
			if e == nil {
				e = r.TopoOps(topo)
			}
			elided := e.Elide()
			for _, n := range []int{1, 100, 4099} {
				if !r.Caps.Match(tune.EnvOf(n, p, topo)) {
					continue
				}
				for _, seg := range segs {
					for root := range p {
						for rank := range p {
							name := func() string {
								return fmt.Sprintf("%s/p=%d/root=%d/n=%d/seg=%d/rank=%d", r.Name, p, root, n, seg, rank)
							}
							buf[0] = prefix
							got := elided(buf[:1], rank, p, root, n, seg)
							if &got[0] != &buf[0] {
								t.Fatalf("%s: %d ops outgrew the test's %d-op buffer", name(), len(got), len(buf))
							}
							if got[0] != prefix {
								t.Fatalf("%s: overwrote dst's earlier op: %v", name(), got)
							}
							if i := slices.IndexFunc(buf[len(got):], func(op sched.Op) bool { return op != sentinel }); i >= 0 {
								t.Fatalf("%s: returned %d ops and wrote slot %d past them: %v", name(), len(got), len(got)+i, buf[len(got)+i])
							}
							for i := range got {
								got[i] = sentinel
							}
						}
					}
				}
			}
		}
	}
}

// TestElideMatchesPerRankWalk: the one-walk build gives, op for op, what
// the per-rank walk it replaced gives (sched.ElidePerRank, the test
// oracle), on every registry row's emitter elided, p 1–24 and 64, every
// root, a few sizes and segments, and on a cold memo (a fresh elided
// emitter, first asked by the last rank) as on a hot one (every rank
// again).
func TestElideMatchesPerRankWalk(t *testing.T) {
	ps := []int{64}
	for p := 1; p <= 24; p++ {
		ps = append(ps, p)
	}
	if testutil.RaceEnabled { // one goroutine: the detector only adds time
		ps = ps[1:9]
	}
	var got []sched.Op
	want := make([][]sched.Op, 64)
	for _, r := range collective.Algorithms() {
		segs := []int{0}
		if r.Caps.Segmented {
			segs = []int{0, 64, 1000}
		}
		for _, p := range ps {
			topo := topology.Blocked(p, 4)
			e := r.Ops
			if e == nil {
				e = r.TopoOps(topo)
			}
			oracle := sched.ElidePerRank(e)
			for _, n := range []int{1, 100, 4099} {
				if !r.Caps.Match(tune.EnvOf(n, p, topo)) {
					continue
				}
				for _, seg := range segs {
					for root := range p {
						elided := e.Elide()
						for _, memo := range []string{"cold", "hot"} {
							for rank := p - 1; rank >= 0; rank-- {
								if memo == "cold" {
									want[rank] = oracle(want[rank][:0], rank, p, root, n, seg)
								}
								if got = elided(got[:0], rank, p, root, n, seg); !slices.Equal(got, want[rank]) {
									t.Fatalf("%s/p=%d/root=%d/n=%d/seg=%d/rank=%d, %s memo:\n got %v\nwant %v",
										r.Name, p, root, n, seg, rank, memo, got, want[rank])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestElideFirstAskConcurrent: every rank of an np-64 world asks one
// fresh elided emitter at once, as the ranks of a cold world compile
// their Plans; the program is built once and every rank gets its own
// ops. Run it under -race.
func TestElideFirstAskConcurrent(t *testing.T) {
	const p, root, n, seg = 64, 5, 4 << 10, 1 << 10
	var builds atomic.Int32
	native := sched.Emitter(func(dst []sched.Op, rank, p, root, n, seg int) []sched.Op {
		if rank == 0 {
			builds.Add(1)
		}
		return core.BcastNativeSegOps(dst, rank, p, root, n, seg)
	})
	elided, oracle := native.Elide(), sched.ElidePerRank(core.BcastNativeSegOps)
	got := make([][]sched.Op, p)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for rank := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[rank] = elided(nil, rank, p, root, n, seg)
		}()
	}
	close(start)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Errorf("the program was built %d times, want once", b)
	}
	for rank := range p {
		if want := oracle(nil, rank, p, root, n, seg); !slices.Equal(got[rank], want) {
			t.Fatalf("rank %d:\n got %v\nwant %v", rank, got[rank], want)
		}
	}
}
