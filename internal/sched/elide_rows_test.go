package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/sched"
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
