package core

import (
	"slices"
	"testing"

	"repro/internal/sched"
)

// opsOfKind filters rank's ops in pr by kind.
func opsOfKind(pr *sched.Program, rank int, kind sched.OpKind) []sched.Op {
	var out []sched.Op
	for _, op := range pr.OpsOf(rank) {
		if op.Kind == kind {
			out = append(out, op)
		}
	}
	return out
}

// TestScatterScheduleFig1 asserts the exact binomial scatter of Figure 1:
// 8 processes, root 0, one unit byte per chunk.
func TestScatterScheduleFig1(t *testing.T) {
	pr := sched.Generate("binomial-scatter", ScatterOps, 8, 0, 8, 0)
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	type msg struct{ to, off, len int }
	wantSends := map[int][]msg{
		0: {{4, 4, 4}, {2, 2, 2}, {1, 1, 1}}, // step 1: {4,5,6,7} -> 4; then {2,3} -> 2; {1} -> 1
		4: {{6, 6, 2}, {5, 5, 1}},
		2: {{3, 3, 1}},
		6: {{7, 7, 1}},
	}
	for rank := 0; rank < 8; rank++ {
		sends := opsOfKind(pr, rank, sched.OpSend)
		want := wantSends[rank]
		if len(sends) != len(want) {
			t.Fatalf("rank %d: %d sends, want %d\n%s", rank, len(sends), len(want), pr.Dump())
		}
		for i, w := range want {
			got := sends[i]
			if got.To != w.to || got.SendOff != w.off || got.SendLen != w.len {
				t.Fatalf("rank %d send %d = %s want to=%d [%d,%d)", rank, i, got, w.to, w.off, w.off+w.len)
			}
		}
		// Every non-root rank receives exactly once, at its own chunk
		// offset, covering its whole subtree.
		recvs := opsOfKind(pr, rank, sched.OpRecv)
		if rank == 0 {
			if len(recvs) != 0 {
				t.Fatalf("root must not receive, got %v", recvs)
			}
			continue
		}
		if len(recvs) != 1 {
			t.Fatalf("rank %d: %d recvs, want 1", rank, len(recvs))
		}
		lo, hi := OwnedChunks(rank, 8)
		if recvs[0].RecvOff != lo || recvs[0].RecvLen != hi-lo {
			t.Fatalf("rank %d recv = %s want [%d,%d)", rank, recvs[0], lo, hi)
		}
	}
	if pr.Stats().Messages != 7 {
		t.Fatalf("scatter messages = %d want 7", pr.Stats().Messages)
	}
}

// TestScatterScheduleFig2 asserts Figure 2: 10 processes; same tree as
// Figure 1 plus an additional branch rooted at process 8.
func TestScatterScheduleFig2(t *testing.T) {
	pr := sched.Generate("binomial-scatter", ScatterOps, 10, 0, 10, 0)
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	rootSends := opsOfKind(pr, 0, sched.OpSend)
	// Root sends, largest subtree first: {8,9} -> 8 (the extra branch,
	// spawned at mask 8), then {4..7} -> 4, {2,3} -> 2, {1} -> 1.
	wantTo := []int{8, 4, 2, 1}
	wantLen := []int{2, 4, 2, 1}
	if len(rootSends) != 4 {
		t.Fatalf("root sends = %d want 4\n%s", len(rootSends), pr.Dump())
	}
	for i := range wantTo {
		if rootSends[i].To != wantTo[i] || rootSends[i].SendLen != wantLen[i] {
			t.Fatalf("root send %d = %s want to=%d len=%d", i, rootSends[i], wantTo[i], wantLen[i])
		}
	}
	// The extra branch: 8 forwards {9} to 9.
	sends8 := opsOfKind(pr, 8, sched.OpSend)
	if len(sends8) != 1 || sends8[0].To != 9 || sends8[0].SendOff != 9 || sends8[0].SendLen != 1 {
		t.Fatalf("rank 8 sends = %v", sends8)
	}
	if pr.Stats().Messages != 9 {
		t.Fatalf("scatter messages = %d want 9", pr.Stats().Messages)
	}
}

// TestScatterScheduleVerifies: for a grid of (p, root, n), the scatter
// schedule runs deadlock-free, transfers only valid data, and leaves each
// rank owning exactly its subtree bytes.
func TestScatterScheduleVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 9, 10, 16, 17, 24, 33} {
		for _, root := range []int{0, 1, p - 1, p / 2} {
			if root < 0 || root >= p {
				continue
			}
			for _, n := range []int{0, 1, p, 3*p + 1, 64 * p} {
				pr := sched.Generate("binomial-scatter", ScatterOps, p, root, n, 0)
				want := ScatterOwnership(p, root, n)
				res, err := sched.Verify(pr, "")
				if err != nil {
					t.Fatalf("p=%d root=%d n=%d: %v", p, root, n, err)
				}
				if res.RedundantMessages != 0 {
					t.Fatalf("p=%d root=%d n=%d: scatter had %d redundant messages", p, root, n, res.RedundantMessages)
				}
				// Ownership must be exactly the subtree (not more).
				for r := 0; r < p; r++ {
					if res.Final[r].String() != want(r).String() {
						t.Fatalf("p=%d root=%d n=%d rank %d: final %s want %s",
							p, root, n, r, res.Final[r], want(r))
					}
				}
			}
		}
	}
}

// TestNativeRingFig3 asserts the enclosed ring of Figure 3: with P = 8
// every rank performs 7 Sendrecv steps; in step i rank r sends chunk
// (r - i + 1 mod 8) and receives chunk (r - i mod 8); 56 messages total.
func TestNativeRingFig3(t *testing.T) {
	const p = 8
	pr := sched.Generate("ring-allgather-native", RingNativeOps, p, 0, p, 0)
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		ops := pr.OpsOf(r)
		if len(ops) != p-1 {
			t.Fatalf("rank %d: %d ops want %d", r, len(ops), p-1)
		}
		for i, op := range ops {
			step := i + 1
			if op.Kind != sched.OpSendrecv {
				t.Fatalf("rank %d step %d: kind %s", r, step, op.Kind)
			}
			wantSendChunk := ((r-step+1)%p + p) % p
			wantRecvChunk := ((r-step)%p + p) % p
			if op.SendOff != wantSendChunk || op.RecvOff != wantRecvChunk {
				t.Fatalf("rank %d step %d: %s want send chunk %d recv chunk %d",
					r, step, op, wantSendChunk, wantRecvChunk)
			}
			if op.To != (r+1)%p || op.From != (r+p-1)%p {
				t.Fatalf("rank %d step %d: wrong peers %s", r, step, op)
			}
		}
	}
	if pr.Stats().Messages != p*(p-1) {
		t.Fatalf("messages = %d want %d", pr.Stats().Messages, p*(p-1))
	}
}

// tunedRing returns the ring phase (the ops of Step >= 1) of the p-rank
// opt broadcast of p one-byte chunks from root 0, after checking the
// whole broadcast is well-formed.
func tunedRing(t *testing.T, p int) *sched.Program {
	t.Helper()
	pr := sched.Generate("ring-allgather-tuned", BcastOptOps, p, 0, p, 0)
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	for r, ops := range pr.Ranks {
		pr.Ranks[r] = slices.DeleteFunc(ops, func(op sched.Op) bool { return op.Step == 0 })
	}
	return pr
}

// TestTunedRingFig4 asserts the non-enclosed ring of Figure 4 (P = 8):
// rank 4 receives chunks 3,2,1,0 in steps 1-4 and has no receives
// afterwards; rank 0 never receives; rank 7 never sends; 44 messages.
func TestTunedRingFig4(t *testing.T) {
	const p = 8
	pr := tunedRing(t, p)
	// Rank 4: steps 1-4 sendrecv (receiving chunks 3,2,1,0), steps 5-7 send-only.
	ops4 := pr.OpsOf(4)
	wantRecvChunks := []int{3, 2, 1, 0}
	for i := 0; i < 4; i++ {
		if ops4[i].Kind != sched.OpSendrecv || ops4[i].RecvOff != wantRecvChunks[i] {
			t.Fatalf("rank 4 step %d: %s want sendrecv of chunk %d", i+1, ops4[i], wantRecvChunks[i])
		}
	}
	for i := 4; i < 7; i++ {
		if ops4[i].Kind != sched.OpSend {
			t.Fatalf("rank 4 step %d: %s want send-only", i+1, ops4[i])
		}
	}
	// Rank 0 (root): send-only in every step.
	for i, op := range pr.OpsOf(0) {
		if op.Kind != sched.OpSend {
			t.Fatalf("root step %d: %s want send-only", i+1, op)
		}
	}
	// Rank 7: receive-only in every step.
	for i, op := range pr.OpsOf(7) {
		if op.Kind != sched.OpRecv {
			t.Fatalf("rank 7 step %d: %s want recv-only", i+1, op)
		}
	}
	// Ranks 2 and 6 stop receiving after step 6; ranks 1 and 5 stop
	// sending after step 6.
	for _, r := range []int{2, 6} {
		ops := pr.OpsOf(r)
		if ops[6].Kind != sched.OpSend {
			t.Fatalf("rank %d step 7: %s want send-only", r, ops[6])
		}
		if ops[5].Kind != sched.OpSendrecv {
			t.Fatalf("rank %d step 6: %s want sendrecv", r, ops[5])
		}
	}
	for _, r := range []int{1, 5} {
		ops := pr.OpsOf(r)
		if ops[6].Kind != sched.OpRecv {
			t.Fatalf("rank %d step 7: %s want recv-only", r, ops[6])
		}
	}
	if got := pr.Stats().Messages; got != 44 {
		t.Fatalf("tuned ring messages = %d want 44 (paper: 56 reduced by 12)", got)
	}
}

// TestTunedRingFig5 asserts Figure 5 (P = 10): rank 4 stops receiving
// after step 6; rank 8 completes its buffer after step 8; 75 messages.
func TestTunedRingFig5(t *testing.T) {
	const p = 10
	pr := tunedRing(t, p)
	ops4 := pr.OpsOf(4)
	// Steps 1-6: sendrecv receiving chunks 3,2,1,0,9,8; steps 7-9 send-only.
	wantRecv := []int{3, 2, 1, 0, 9, 8}
	for i, c := range wantRecv {
		if ops4[i].Kind != sched.OpSendrecv || ops4[i].RecvOff != c {
			t.Fatalf("rank 4 step %d: %s want sendrecv chunk %d", i+1, ops4[i], c)
		}
	}
	for i := 6; i < 9; i++ {
		if ops4[i].Kind != sched.OpSend {
			t.Fatalf("rank 4 step %d: %s want send-only", i+1, ops4[i])
		}
	}
	// Rank 8 (subtree {8,9}): sendrecv through step 8, send-only at step 9.
	ops8 := pr.OpsOf(8)
	for i := 0; i < 8; i++ {
		if ops8[i].Kind != sched.OpSendrecv {
			t.Fatalf("rank 8 step %d: %s want sendrecv", i+1, ops8[i])
		}
	}
	if ops8[8].Kind != sched.OpSend {
		t.Fatalf("rank 8 step 9: %s want send-only", ops8[8])
	}
	if got := pr.Stats().Messages; got != 75 {
		t.Fatalf("tuned ring messages = %d want 75 (paper: 90 reduced by 15)", got)
	}
}

// bcastGrid is the (p, root, n) grid used by the end-to-end schedule tests.
func bcastGrid() [][3]int {
	var grid [][3]int
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 17, 24, 31, 33, 64} {
		for _, root := range []int{0, 1, p / 2, p - 1} {
			if root < 0 || root >= p {
				continue
			}
			for _, n := range []int{0, 1, p - 1, p, 7 * p, 64*p + 5} {
				if n < 0 {
					continue
				}
				grid = append(grid, [3]int{p, root, n})
			}
		}
	}
	return grid
}

// TestBcastNativeProgramVerifies: the full native broadcast (scatter +
// enclosed ring) completes, transfers only sender-owned data, and leaves
// every rank with the whole buffer. Its redundant traffic equals the
// closed-form saving when all chunks are non-empty.
func TestBcastNativeProgramVerifies(t *testing.T) {
	for _, g := range bcastGrid() {
		p, root, n := g[0], g[1], g[2]
		pr := sched.Generate("bcast-native", BcastNativeOps, p, root, n, 0)
		res, err := sched.Verify(pr, "bcast")
		if err != nil {
			t.Fatalf("p=%d root=%d n=%d: %v", p, root, n, err)
		}
		if n >= p && p > 1 {
			want := TunedSavedMessages(p)
			if res.RedundantMessages != want {
				t.Fatalf("p=%d root=%d n=%d: native redundant messages = %d want %d",
					p, root, n, res.RedundantMessages, want)
			}
		}
	}
}

// TestBcastOptProgramVerifies: the tuned broadcast completes with zero
// redundant transfers — the paper's core claim.
func TestBcastOptProgramVerifies(t *testing.T) {
	for _, g := range bcastGrid() {
		p, root, n := g[0], g[1], g[2]
		pr := sched.Generate("bcast-opt", BcastOptOps, p, root, n, 0)
		res, err := sched.Verify(pr, "bcast")
		if err != nil {
			t.Fatalf("p=%d root=%d n=%d: %v", p, root, n, err)
		}
		if res.RedundantMessages != 0 {
			t.Fatalf("p=%d root=%d n=%d: tuned broadcast had %d redundant messages",
				p, root, n, res.RedundantMessages)
		}
	}
}

// TestBcastRdbProgramVerifies: the power-of-two medium-message path.
func TestBcastRdbProgramVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, root := range []int{0, p - 1} {
			if root < 0 {
				continue
			}
			for _, n := range []int{0, 1, p, 16*p + 3} {
				pr := sched.Generate("bcast-scatter-rdb", BcastRdbOps, p, root, n, 0)
				if _, err := sched.Verify(pr, "bcast"); err != nil {
					t.Fatalf("p=%d root=%d n=%d: %v", p, root, n, err)
				}
			}
		}
	}
}

func TestRdbAllgatherRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RdbAllgather(10) must panic")
		}
	}()
	sched.Generate("rdb-allgather", RdbOps, 10, 0, 10, 0)
}

func TestRdbMessageCount(t *testing.T) {
	// Recursive doubling: every rank sends once per round, log2(p) rounds.
	for _, p := range []int{2, 4, 8, 16, 32} {
		pr := sched.Generate("rdb-allgather", RdbOps, p, 0, 64*p, 0)
		want := p * FloorLog2(p)
		if pr.Stats().Messages != want {
			t.Fatalf("p=%d: rdb messages = %d want %d", p, pr.Stats().Messages, want)
		}
	}
}

// TestBinomialBcastVerifies: the short-message path delivers the full
// buffer everywhere with exactly p-1 full-size messages.
func TestBinomialBcastVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16, 33} {
		for _, root := range []int{0, p / 2} {
			for _, n := range []int{0, 1, 1024} {
				pr := sched.Generate("binomial-bcast", BinomialOps, p, root, n, 0)
				if _, err := sched.Verify(pr, "bcast"); err != nil {
					t.Fatalf("p=%d root=%d n=%d: %v", p, root, n, err)
				}
				if pr.Stats().Messages != p-1 {
					t.Fatalf("p=%d: binomial messages = %d want %d", p, pr.Stats().Messages, p-1)
				}
				if pr.Stats().Bytes != (p-1)*n {
					t.Fatalf("p=%d n=%d: binomial bytes = %d want %d", p, n, pr.Stats().Bytes, (p-1)*n)
				}
			}
		}
	}
}

// TestBinomialBcastRounds: the binomial tree completes in ceil(log2 p)
// communication rounds — the "dlog2(P)e steps" property of Section III.
// A rank's receive round is its parent's receive round plus the 1-based
// position of this child in the parent's (descending-mask) send order.
func TestBinomialBcastRounds(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 9, 10, 16, 17, 33, 64, 100} {
		pr := sched.Generate("binomial-bcast", BinomialOps, p, 0, p, 0)
		round := make([]int, p) // receive round per relative rank; root = 0
		maxRound := 0
		// Ranks are processed in increasing rel order; parent < child, so
		// the parent's round is always known first.
		for rel := 1; rel < p; rel++ {
			parent := scatterParent(rel)
			// Position of rel among parent's children (descending mask).
			parentTop := CeilPow2(p)
			if parent != 0 {
				parentTop = parent & (-parent)
			}
			pos := 0
			for mask := parentTop >> 1; mask > 0; mask >>= 1 {
				child := parent + mask
				if child >= p {
					continue
				}
				pos++
				if child == rel {
					break
				}
			}
			round[rel] = round[parent] + pos
			if round[rel] > maxRound {
				maxRound = round[rel]
			}
		}
		want := 0
		for v := 1; v < p; v <<= 1 {
			want++
		}
		if maxRound != want {
			t.Fatalf("p=%d: rounds %d want ceil(log2 p) = %d", p, maxRound, want)
		}
		_ = pr
	}
}

// TestRingStepsEqual: tuned and native rings run the same number of steps
// (the paper: "using the same steps as the native ring allgather").
func TestRingStepsEqual(t *testing.T) {
	for _, p := range []int{2, 5, 8, 10, 17} {
		nat := sched.Generate("ring-allgather-native", RingNativeOps, p, 0, 8*p, 0).Stats()
		tun := sched.Generate("bcast-opt", BcastOptOps, p, 0, 8*p, 0).Stats()
		if nat.MaxStep != p-1 || tun.MaxStep != p-1 {
			t.Fatalf("p=%d: maxStep native %d tuned %d want %d", p, nat.MaxStep, tun.MaxStep, p-1)
		}
	}
}
