package core

import (
	"testing"

	"repro/internal/sched"
)

// segGrid pairs bcastGrid points with segment sizes spanning the
// interesting regimes: tiny (many segments per chunk), chunk-misaligned,
// and huge (one segment per chunk, degenerating to the unsegmented ring).
func segGrid() []int { return []int{1, 3, 16, 64, 1 << 20} }

// TestBcastNativeSegProgramVerifies: the segmented native broadcast is
// deadlock-free, valid, and delivers the full buffer everywhere; like the
// enclosed ring it keeps the redundant transfers the tuned ring removes.
func TestBcastNativeSegProgramVerifies(t *testing.T) {
	for _, g := range bcastGrid() {
		p, root, n := g[0], g[1], g[2]
		for _, seg := range segGrid() {
			pr := sched.Generate("bcast-native-seg", BcastNativeSegOps, p, root, n, seg)
			if _, err := sched.Verify(pr, "bcast"); err != nil {
				t.Fatalf("p=%d root=%d n=%d seg=%d: %v", p, root, n, seg, err)
			}
		}
	}
}

// TestBcastOptSegProgramVerifies: the segmented tuned broadcast completes
// with zero redundant transfers — the paper's core claim survives
// segmentation.
func TestBcastOptSegProgramVerifies(t *testing.T) {
	for _, g := range bcastGrid() {
		p, root, n := g[0], g[1], g[2]
		for _, seg := range segGrid() {
			pr := sched.Generate("bcast-opt-seg", BcastOptSegOps, p, root, n, seg)
			res, err := sched.Verify(pr, "bcast")
			if err != nil {
				t.Fatalf("p=%d root=%d n=%d seg=%d: %v", p, root, n, seg, err)
			}
			if res.RedundantMessages != 0 {
				t.Fatalf("p=%d root=%d n=%d seg=%d: %d redundant messages",
					p, root, n, seg, res.RedundantMessages)
			}
		}
	}
}

// TestSegRingBytesMatchUnsegmented: segmentation splits messages but must
// move exactly the bytes of its unsegmented counterpart.
func TestSegRingBytesMatchUnsegmented(t *testing.T) {
	for _, g := range bcastGrid() {
		p, root, n := g[0], g[1], g[2]
		for _, seg := range segGrid() {
			natSeg := sched.Generate("ring-allgather-native-seg", RingNativeSegOps, p, root, n, seg).Stats()
			nat := sched.Generate("ring-allgather-native", RingNativeOps, p, root, n, 0).Stats()
			if natSeg.Bytes != nat.Bytes {
				t.Fatalf("p=%d n=%d seg=%d: native seg bytes %d != %d", p, n, seg, natSeg.Bytes, nat.Bytes)
			}
			if natSeg.Messages < nat.Messages {
				t.Fatalf("p=%d n=%d seg=%d: native seg messages %d < %d", p, n, seg, natSeg.Messages, nat.Messages)
			}
			optSeg := sched.Generate("bcast-opt-seg", BcastOptSegOps, p, root, n, seg).Stats()
			opt := sched.Generate("bcast-opt", BcastOptOps, p, root, n, 0).Stats()
			if optSeg.Bytes != opt.Bytes {
				t.Fatalf("p=%d n=%d seg=%d: tuned seg bytes %d != %d", p, n, seg, optSeg.Bytes, opt.Bytes)
			}
		}
	}
}

// TestSegRingDegeneratesToUnsegmented: the unsegmented rings are the
// segmented emitter at one segment per chunk, so what is left to pin is
// that "at or above the chunk size" is one schedule, not several: every
// such segment size — the chunk, twice the chunk, the whole buffer —
// emits the ops of the unsegmented ring, message for message. (Figures
// 3, 4 and 5 as literals and traffic.go's closed forms are the oracle
// for what those ops are.)
func TestSegRingDegeneratesToUnsegmented(t *testing.T) {
	for _, g := range bcastGrid() {
		p, root, n := g[0], g[1], g[2]
		chunk := wholeChunks(n, p)
		for _, seg := range []int{chunk, 2 * chunk, max(n, chunk)} {
			cases := []struct {
				name     string
				seg, ref *sched.Program
			}{
				{"native", sched.Generate("ring-allgather-native-seg", RingNativeSegOps, p, root, n, seg), sched.Generate("ring-allgather-native", RingNativeOps, p, root, n, 0)},
				{"tuned", sched.Generate("bcast-opt-seg", BcastOptSegOps, p, root, n, seg), sched.Generate("bcast-opt", BcastOptOps, p, root, n, 0)},
			}
			for _, tc := range cases {
				for r := 0; r < p; r++ {
					segOps, refOps := tc.seg.OpsOf(r), tc.ref.OpsOf(r)
					if len(segOps) != len(refOps) {
						t.Fatalf("%s p=%d root=%d n=%d seg=%d rank %d: %d ops != %d", tc.name, p, root, n, seg, r, len(segOps), len(refOps))
					}
					for i := range segOps {
						if segOps[i] != refOps[i] {
							t.Fatalf("%s p=%d root=%d n=%d seg=%d rank %d op %d: %v != %v",
								tc.name, p, root, n, seg, r, i, segOps[i], refOps[i])
						}
					}
				}
			}
		}
	}
}

// TestSegRingTunedSavesMessages: at every grid point the segmented tuned
// ring sends no more messages (and strictly fewer whenever the
// unsegmented saving is non-zero) than the segmented native ring at the
// same segment size.
func TestSegRingTunedSavesMessages(t *testing.T) {
	for _, p := range []int{2, 4, 8, 10, 16, 17} {
		n := 64 * p
		for _, seg := range []int{8, 64} {
			nat := sched.Generate("bcast-native-seg", BcastNativeSegOps, p, 0, n, seg).Stats()
			opt := sched.Generate("bcast-opt-seg", BcastOptSegOps, p, 0, n, seg).Stats()
			if opt.Messages > nat.Messages {
				t.Fatalf("p=%d seg=%d: tuned seg messages %d > native %d", p, seg, opt.Messages, nat.Messages)
			}
			if TunedSavedMessages(p) > 0 && opt.Messages >= nat.Messages {
				t.Fatalf("p=%d seg=%d: tuned seg saved nothing (%d vs %d)", p, seg, opt.Messages, nat.Messages)
			}
			if opt.Bytes >= nat.Bytes && p > 2 {
				t.Fatalf("p=%d seg=%d: tuned seg bytes %d >= native %d", p, seg, opt.Bytes, nat.Bytes)
			}
		}
	}
}

// TestRingSegmentsAndSegSpan pins the segmentation helpers' edge cases.
func TestRingSegmentsAndSegSpan(t *testing.T) {
	cases := []struct {
		count, seg, want int
	}{
		{0, 8, 1},  // empty chunk: one zero-byte envelope
		{1, 8, 1},  // short chunk
		{8, 8, 1},  // exact fit
		{9, 8, 2},  // one spill byte
		{24, 8, 3}, // even split
		{100, 1, 100},
	}
	for _, tc := range cases {
		if got := RingSegments(tc.count, tc.seg); got != tc.want {
			t.Errorf("RingSegments(%d, %d) = %d want %d", tc.count, tc.seg, got, tc.want)
		}
	}
	// Segment spans tile the chunk exactly.
	for _, count := range []int{0, 1, 7, 8, 9, 100} {
		const seg = 8
		total := 0
		for s := 0; s < RingSegments(count, seg); s++ {
			off, length := SegSpan(count, seg, s)
			if off != total {
				t.Fatalf("count=%d seg %d: off %d want %d", count, s, off, total)
			}
			total += length
		}
		if total != count {
			t.Fatalf("count=%d: spans cover %d bytes", count, total)
		}
	}
}
