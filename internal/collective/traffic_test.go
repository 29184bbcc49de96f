package collective

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tune"
)

// measureBcast runs algo under the trace collector and returns the stats.
func measureBcast(t *testing.T, algo bcastFn, opts engine.Options, root, n int) trace.Stats {
	t.Helper()
	col := trace.NewCollector()
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		buf := make([]byte, n)
		if tc.Rank() == root {
			copy(buf, pattern(n))
		}
		return algo(tc, buf, root)
	})
	if err != nil {
		t.Fatalf("measure p=%d root=%d n=%d: %v", opts.NP, root, n, err)
	}
	return col.Stats()
}

// TestMeasuredTrafficMatchesAnalyticModel is the central cross-validation:
// the broadcasts as executed on the engine must produce exactly the
// per-phase message and byte counts that the analytic model in
// internal/core predicts — for both ring variants, across process
// counts, roots, and uneven chunk sizes.
func TestMeasuredTrafficMatchesAnalyticModel(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8, 9, 10, 16, 17} {
		for _, root := range []int{0, p - 1} {
			for _, n := range []int{p, 8*p + 3, 1 << 10} {
				natStats := measureBcast(t, pinned(tune.RingNative, 0), engine.Options{NP: p}, root, n)
				optStats := measureBcast(t, pinned(tune.RingOpt, 0), engine.Options{NP: p}, root, n)

				scat := core.ScatterTraffic(p, n)
				nat := core.RingTrafficNative(p, n)
				opt := core.RingTrafficTuned(p, n)

				if got := natStats.ByTag[core.TagScatter]; got.Messages != int64(scat.Messages) || got.Bytes != int64(scat.Bytes) {
					t.Fatalf("p=%d root=%d n=%d: scatter traffic %+v want %+v", p, root, n, got, scat)
				}
				if got := natStats.ByTag[core.TagRing]; got.Messages != int64(nat.Messages) || got.Bytes != int64(nat.Bytes) {
					t.Fatalf("p=%d root=%d n=%d: native ring traffic %+v want %+v", p, root, n, got, nat)
				}
				if got := optStats.ByTag[core.TagRing]; got.Messages != int64(opt.Messages) || got.Bytes != int64(opt.Bytes) {
					t.Fatalf("p=%d root=%d n=%d: tuned ring traffic %+v want %+v", p, root, n, got, opt)
				}
				// Every message sent was received.
				if natStats.Recvs != natStats.Total.Messages {
					t.Fatalf("p=%d root=%d n=%d: native recvs %d != sends %d", p, root, n, natStats.Recvs, natStats.Total.Messages)
				}
				if optStats.Recvs != optStats.Total.Messages {
					t.Fatalf("p=%d root=%d n=%d: opt recvs %d != sends %d", p, root, n, optStats.Recvs, optStats.Total.Messages)
				}
			}
		}
	}
}

// TestMeasuredPaperCounts reproduces the paper's Section IV counts with
// the real executable collectives: P=8 ring 56 vs 44, P=10 ring 90 vs 75.
func TestMeasuredPaperCounts(t *testing.T) {
	cases := []struct {
		p, native, tuned int
	}{
		{8, 56, 44},
		{10, 90, 75},
	}
	for _, tc := range cases {
		n := 64 * tc.p
		nat := measureBcast(t, pinned(tune.RingNative, 0), engine.Options{NP: tc.p}, 0, n)
		opt := measureBcast(t, pinned(tune.RingOpt, 0), engine.Options{NP: tc.p}, 0, n)
		if got := nat.ByTag[core.TagRing].Messages; got != int64(tc.native) {
			t.Errorf("P=%d native ring messages = %d want %d", tc.p, got, tc.native)
		}
		if got := opt.ByTag[core.TagRing].Messages; got != int64(tc.tuned) {
			t.Errorf("P=%d tuned ring messages = %d want %d", tc.p, got, tc.tuned)
		}
	}
}

// TestIntraInterSplitOnBlockedPlacement checks the topology
// classification: with Blocked(8,4) every ring crossing between ranks 3/4
// and 7/0 is inter-node, the rest intra-node; the tuned ring must save
// messages overall.
func TestIntraInterSplitOnBlockedPlacement(t *testing.T) {
	const p, n = 8, 1 << 10
	topo := topology.Blocked(p, 4)
	nat := measureBcast(t, pinned(tune.RingNative, 0), engine.Options{NP: p, Topology: topo}, 0, n)
	opt := measureBcast(t, pinned(tune.RingOpt, 0), engine.Options{NP: p, Topology: topo}, 0, n)

	if nat.Intra.Messages+nat.Inter.Messages != nat.Total.Messages {
		t.Fatalf("classification does not partition: %+v", nat)
	}
	if nat.Inter.Messages == 0 || nat.Intra.Messages == 0 {
		t.Fatalf("blocked placement must mix levels: %+v", nat)
	}
	saved := nat.Total.Messages - opt.Total.Messages
	if saved != int64(core.TunedSavedMessages(p)) {
		t.Fatalf("saved %d messages, want %d", saved, core.TunedSavedMessages(p))
	}
	// The ring cut crossings: ranks 3->4 and 7->0 cross nodes in each
	// direction... only ring and scatter messages between the two halves
	// are inter-node. Sanity: inter < intra for this placement.
	if nat.Inter.Messages >= nat.Intra.Messages {
		t.Fatalf("expected mostly intra-node traffic: %+v", nat)
	}
}

// TestSMPTrafficConcentratesInterNodeOnLeaders: in the SMP variant, only
// the leaders' ring runs inter-node; everything else must be intra-node.
func TestSMPTrafficConcentratesInterNodeOnLeaders(t *testing.T) {
	const p, n = 12, 1 << 10
	topo := topology.Blocked(p, 4) // 3 nodes, leaders 0, 4, 8
	smp := measureBcast(t, pinned(tune.SMP, 0), engine.Options{NP: p, Topology: topo}, 0, n)
	flat := measureBcast(t, pinned(tune.RingNative, 0), engine.Options{NP: p, Topology: topo}, 0, n)

	// All SMP inter-node traffic comes from the 3-leader ring phase:
	// scatter 2 msgs + enclosed ring 3*2 = 6 msgs -> 8 inter messages.
	if smp.Inter.Messages != 8 {
		t.Fatalf("smp inter messages = %d want 8 (%s)", smp.Inter.Messages, smp)
	}
	// The flat ring sends far more across nodes than the SMP variant.
	if flat.Inter.Messages <= smp.Inter.Messages {
		t.Fatalf("flat ring should cross nodes more: flat %d vs smp %d",
			flat.Inter.Messages, smp.Inter.Messages)
	}
	// Binomial phases are tagged TagBinomial and must all be intra-node.
	binom := smp.ByTag[core.TagBinomial]
	if binom.Messages == 0 {
		t.Fatalf("smp run recorded no binomial traffic: %s", smp)
	}
}

// TestTunedNeverSendsMore: across a grid, the tuned variant's total is
// never above the native's, and equals it minus the closed-form savings.
func TestTunedNeverSendsMore(t *testing.T) {
	for _, p := range []int{2, 4, 6, 11, 13} {
		n := 16 * p
		nat := measureBcast(t, pinned(tune.RingNative, 0), engine.Options{NP: p}, 0, n)
		opt := measureBcast(t, pinned(tune.RingOpt, 0), engine.Options{NP: p}, 0, n)
		want := int64(core.TunedSavedMessages(p))
		if nat.Total.Messages-opt.Total.Messages != want {
			t.Fatalf("p=%d: savings %d want %d", p, nat.Total.Messages-opt.Total.Messages, want)
		}
		if opt.Total.Bytes > nat.Total.Bytes {
			t.Fatalf("p=%d: tuned bytes %d > native %d", p, opt.Total.Bytes, nat.Total.Bytes)
		}
	}
}

// TestOptMovesFewerInterNodeBytes asserts the paper's headline invariant
// as a regression test: at every long-message grid point, on every
// multi-node placement, the tuned broadcast — and its segmented variant —
// moves strictly fewer inter-node bytes (and messages) than the native
// ring. This is the bandwidth saving the paper claims, measured on real
// traced execution rather than the analytic model.
func TestOptMovesFewerInterNodeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("moves megabytes per grid point")
	}
	const seg = 48 << 10 // below the chunk size at every grid point
	optSeg := pinned(tune.RingOptSeg, seg)
	for _, p := range []int{8, 10, 12} {
		for _, topo := range []*topology.Map{
			topology.Blocked(p, 4),
			topology.RoundRobin(p, 4),
		} {
			for _, n := range []int{512 << 10, 1 << 20} { // the paper's long-message regime
				opts := engine.Options{NP: p, Topology: topo}
				nat := measureBcast(t, pinned(tune.RingNative, 0), opts, 0, n)
				opt := measureBcast(t, pinned(tune.RingOpt, 0), opts, 0, n)
				optS := measureBcast(t, optSeg, opts, 0, n)

				if opt.Inter.Bytes >= nat.Inter.Bytes {
					t.Errorf("%s n=%d: opt inter bytes %d >= native %d", topo, n, opt.Inter.Bytes, nat.Inter.Bytes)
				}
				if optS.Inter.Bytes >= nat.Inter.Bytes {
					t.Errorf("%s n=%d: opt-seg inter bytes %d >= native %d", topo, n, optS.Inter.Bytes, nat.Inter.Bytes)
				}
				if opt.Inter.Messages >= nat.Inter.Messages {
					t.Errorf("%s n=%d: opt inter messages %d >= native %d", topo, n, opt.Inter.Messages, nat.Inter.Messages)
				}
				// The segmented variant re-partitions messages but must move
				// exactly the tuned ring's byte volume, inter and intra.
				if optS.Inter.Bytes != opt.Inter.Bytes || optS.Intra.Bytes != opt.Intra.Bytes {
					t.Errorf("%s n=%d: opt-seg bytes inter/intra %d/%d != opt %d/%d",
						topo, n, optS.Inter.Bytes, optS.Intra.Bytes, opt.Inter.Bytes, opt.Intra.Bytes)
				}
			}
		}
	}
}
