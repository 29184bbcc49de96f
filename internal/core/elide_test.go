package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

// listing1 is the reference the elided broadcasts are held to: a rank's
// native broadcast ops with the paper's Listing 1 applied to the ring
// steps — once i > P - step a send-only rank loses each receive half and
// a receive-only rank each send half — and every empty half removed.
func listing1(native []sched.Op, rank, p, root int) []sched.Op {
	sf := ComputeStepFlag(RelRank(rank, root, p), p)
	var out []sched.Op
	for _, op := range native {
		send := op.Kind != sched.OpRecv && op.SendLen > 0
		recv := op.Kind != sched.OpSend && op.RecvLen > 0
		if op.Step >= 1 && sf.Step > p-op.Step {
			send, recv = send && !sf.RecvOnly, recv && sf.RecvOnly
		}
		switch {
		case send && recv:
		case send:
			op.Kind, op.From, op.RecvOff, op.RecvLen = sched.OpSend, 0, 0, 0
		case recv:
			op.Kind, op.To, op.SendOff, op.SendLen = sched.OpRecv, 0, 0, 0
		default:
			continue
		}
		out = append(out, op)
	}
	return out
}

// TestElideIsListing1: the opt broadcasts, the native ones elided, are
// Listing 1's op for op on every rank of the grid, segmented or not —
// except that no rank sends the zero-byte envelopes Listing 1 sends for
// empty chunks. With no empty chunk the reference removes nothing, so
// there the two are exactly equal.
func TestElideIsListing1(t *testing.T) {
	ps := []int{64, 100, 129, 256}
	for p := 1; p <= 40; p++ {
		ps = append(ps, p)
	}
	segs := []int{0, 7, 64, 4096}
	if testing.Short() {
		ps, segs = []int{1, 2, 3, 5, 8, 10, 17, 33, 64}, []int{0, 7}
	}
	var got []sched.Op
	for _, p := range ps {
		roots := []int{0, min(1, p-1), p / 2, p - 1}
		slices.Sort(roots)
		for _, root := range slices.Compact(roots) {
			for _, n := range []int{0, 1, p - 1, p, 7*p + 3, 64*p + 5, 1000} {
				for _, seg := range segs {
					native, opt := BcastNativeSegOps, BcastOptSegOps
					if seg == 0 {
						native, opt = BcastNativeOps, BcastOptOps
					}
					for rank := range p {
						got = opt(got[:0], rank, p, root, n, seg)
						want := listing1(native(nil, rank, p, root, n, seg), rank, p, root)
						if !slices.Equal(got, want) {
							t.Fatalf("p=%d root=%d n=%d seg=%d rank %d:\n got %v\nwant %v", p, root, n, seg, rank, got, want)
						}
					}
				}
			}
		}
	}
}

// TestElideOnTheOtherRows records what the pass does to the schedules the
// paper does not tune. On a non-empty buffer it leaves the binomial
// tree, the chain, the scatter and the opt rows as they are (an elided
// schedule has nothing left to elide; an empty buffer's zero-byte
// messages go). It turns smp into smp-opt's traffic. And it cuts
// scatter-rdb, whose recursive doubling re-sends chunks the scatter
// already gave the partner, and the cut schedule still verifies.
func TestElideOnTheOtherRows(t *testing.T) {
	blocked := topology.Blocked(16, 4)
	for name, e := range map[string]sched.Emitter{
		"binomial": BinomialOps, "chain": ChainOps, "scatter": ScatterOps,
		"opt": BcastOptOps, "opt-seg": BcastOptSegOps, "smp-opt": SMPOptOps(blocked),
	} {
		for _, p := range []int{1, 2, 5, 8, 10, 16} {
			if name == "smp-opt" && p != 16 {
				continue
			}
			for _, n := range []int{1, 1000} {
				want := sched.Generate(name, e, p, p/2, n, 64)
				if got := sched.Generate(name, e.Elide(), p, p/2, n, 64); !slices.EqualFunc(got.Ranks, want.Ranks, slices.Equal) {
					t.Fatalf("%s p=%d n=%d: elided\n%s\nwant\n%s", name, p, n, got.Dump(), want.Dump())
				}
			}
		}
	}

	smp := sched.Generate("smp", SMPNativeOps(blocked), 16, 0, 1000, 0).Stats()
	elided := sched.Generate("smp", SMPNativeOps(blocked).Elide(), 16, 0, 1000, 0).Stats()
	opt := sched.Generate("smp-opt", SMPOptOps(blocked), 16, 0, 1000, 0).Stats()
	if smp.Messages != 27 || elided != opt || opt.Messages != 23 {
		t.Fatalf("smp %+v elided to %+v, smp-opt %+v; want 27 messages elided to smp-opt's 23", smp, elided, opt)
	}

	for _, c := range []struct{ p, msgs, bytes, elidedMsgs, elidedBytes int }{
		{8, 31, 8500, 24, 7000},
		{16, 79, 16984, 64, 15000},
		{32, 191, 33440, 160, 31000},
	} {
		rdb := sched.Generate("scatter-rdb", BcastRdbOps, c.p, 0, 1000, 0).Stats()
		pr := sched.Generate("scatter-rdb", BcastRdbOps.Elide(), c.p, 0, 1000, 0)
		st := pr.Stats()
		if rdb.Messages != c.msgs || rdb.Bytes != c.bytes || st.Messages != c.elidedMsgs || st.Bytes != c.elidedBytes {
			t.Errorf("p=%d: scatter-rdb %d msgs %d B elided to %d msgs %d B, want %d/%d -> %d/%d",
				c.p, rdb.Messages, rdb.Bytes, st.Messages, st.Bytes, c.msgs, c.bytes, c.elidedMsgs, c.elidedBytes)
		}
		res, err := sched.Verify(pr, "bcast")
		if err != nil || res.RedundantMessages != 0 {
			t.Errorf("p=%d: elided scatter-rdb: %v, %+v", c.p, err, res)
		}
	}
}

// BenchmarkElidedEmit: every rank of msgrate-np64's shape (np 64, 4 KiB,
// 8 KiB segments) emits its opt-seg ops once, through an elided emitter
// no rank has asked before (elided: one op is a cold build and 64
// slices of it), through one whose memo holds the shape (elided-hot: 64
// slices), and natively (native, the broadcast elision starts from).
// Run it with
//
//	go test -run '^$' -bench BenchmarkElidedEmit -benchmem ./internal/core
func BenchmarkElidedEmit(b *testing.B) {
	const p, n, seg = 64, 4 << 10, 8 << 10
	var dst []sched.Op
	emitAll := func(e sched.Emitter) {
		for rank := range p {
			dst = e(dst[:0], rank, p, 0, n, seg)
		}
	}
	b.Run(fmt.Sprintf("np=%d/native", p), func(b *testing.B) {
		for range b.N {
			emitAll(BcastNativeSegOps)
		}
	})
	b.Run(fmt.Sprintf("np=%d/elided", p), func(b *testing.B) {
		for range b.N {
			emitAll(BcastNativeSegOps.Elide())
		}
	})
	b.Run(fmt.Sprintf("np=%d/elided-hot", p), func(b *testing.B) {
		elided := BcastNativeSegOps.Elide()
		emitAll(elided)
		b.ResetTimer()
		for range b.N {
			emitAll(elided)
		}
	})
}
