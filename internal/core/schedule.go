package core

import (
	"fmt"

	"repro/internal/sched"
)

// Reserved message tags used by the collective algorithms. The executor
// in internal/collective sends with the tags the emitters put on each
// op, so traces recorded there can be matched against schedules
// generated here.
const (
	// TagScatter marks binomial-scatter-phase messages.
	TagScatter = 0x7F01
	// TagRing marks ring-allgather-phase messages (native and tuned).
	TagRing = 0x7F02
	// TagRdb marks recursive-doubling allgather messages.
	TagRdb = 0x7F03
	// TagBinomial marks whole-buffer binomial broadcast messages.
	TagBinomial = 0x7F04
	// TagBarrier marks dissemination-barrier messages.
	TagBarrier = 0x7F05
	// TagChain marks pipelined-chain broadcast messages (extension).
	TagChain = 0x7F0A
)

// Every algorithm in this package is written once, as a sched.Emitter
// that lists one rank's operations (the *Ops functions). Its whole
// program is sched.Generate over that emitter, and the executor in
// internal/collective calls the same emitter for the calling rank — so
// the schedule the verifier, simulator and tuner see and the operations a
// rank runs are the same code.

// The composed broadcasts: a binomial scatter followed by an allgather.
var (
	// BcastNativeOps is MPI_Bcast_native: scatter + enclosed ring.
	BcastNativeOps = sched.Emitter(ScatterOps).Then(RingNativeOps)
	// BcastOptOps is the paper's MPI_Bcast_opt (Figures 4 and 5): the
	// native broadcast elided, so no rank receives a chunk it holds.
	BcastOptOps = BcastNativeOps.Elide()
	// BcastRdbOps is MPICH's medium-message power-of-two broadcast:
	// scatter + recursive doubling.
	BcastRdbOps = sched.Emitter(ScatterOps).Then(RdbOps)
	// BcastNativeSegOps is scatter + segmented enclosed ring.
	BcastNativeSegOps = sched.Emitter(ScatterOps).Then(RingNativeSegOps)
	// BcastOptSegOps is the segmented native broadcast elided.
	BcastOptSegOps = BcastNativeSegOps.Elide()
)

// coverEnd returns the byte offset just past the last chunk relative rank
// rel receives in the scatter phase (its subtree's end, clamped to n).
func coverEnd(l Layout, rel, p int) int {
	_, hi := OwnedChunks(rel, p)
	return l.Disp(hi)
}

// ScatterOps emits the binomial scatter tree of Figures 1 and 2: the root
// splits the buffer into P chunks and sends each subtree's chunk range
// down the tree; relative rank rel ends up holding chunks
// [rel, rel+Extent(rel)).
//
// Messages carry exactly the bytes MPICH's scatter_for_bcast transfers:
// the subtree byte range clamped to the buffer, and a transfer is omitted
// entirely when uneven division leaves it empty (MPICH only posts the
// send/recv pair when send_size > 0).
func ScatterOps(dst []sched.Op, rank, p, root, n, _ int) []sched.Op {
	l := NewLayout(n, p)
	rel := RelRank(rank, root, p)
	// Receive from parent (all ranks except the root).
	recvMask := CeilPow2(p)
	if rel != 0 {
		recvMask = rel & (-rel) // lowest set bit: distance to parent
		off := l.Disp(rel)
		if length := coverEnd(l, rel, p) - off; length > 0 {
			dst = append(dst, sched.Op{
				Kind: sched.OpRecv, From: AbsRank(rel-recvMask, root, p),
				RecvOff: off, RecvLen: length,
				Tag: TagScatter, Step: 0,
			})
		}
	}
	// Forward to children, largest subtree first.
	for mask := recvMask >> 1; mask > 0; mask >>= 1 {
		child := rel + mask
		if child >= p {
			continue
		}
		off := l.Disp(child)
		if length := coverEnd(l, child, p) - off; length > 0 {
			dst = append(dst, sched.Op{
				Kind: sched.OpSend, To: AbsRank(child, root, p),
				SendOff: off, SendLen: length,
				Tag: TagScatter, Step: 0,
			})
		}
	}
	return dst
}

// ringPeers returns the ring neighbours of rank in a P-rank communicator.
func ringPeers(rank, p int) (left, right int) {
	return (rank - 1 + p) % p, (rank + 1) % p
}

// wholeChunks is the segment size at which RingNativeSegOps cuts
// nothing: every chunk of the n-byte, p-rank layout is one segment, so
// the unsegmented ring is the segmented one at this size.
func wholeChunks(n, p int) int { return max(NewLayout(n, p).ScatterSize, 1) }

// RingNativeOps emits the enclosed-ring allgather of Figure 3: every rank
// runs P-1 Sendrecv steps, forwarding in step i the chunk it received in
// step i-1 (starting from its own chunk), regardless of what it already
// owns from the scatter phase. Exactly P messages flow in every step,
// P*(P-1) in total — the waste the paper eliminates.
func RingNativeOps(dst []sched.Op, rank, p, root, n, _ int) []sched.Op {
	return RingNativeSegOps(dst, rank, p, root, n, wholeChunks(n, p))
}

// RdbOps emits the recursive-doubling allgather MPICH uses for medium
// messages with power-of-two communicators: in round k (mask = 2^k),
// relative rank rel exchanges its current 2^k-chunk block with partner
// rel XOR mask, doubling the owned block each round. p must be a power
// of two.
func RdbOps(dst []sched.Op, rank, p, root, n, _ int) []sched.Op {
	if !IsPow2(p) {
		panic(fmt.Sprintf("core: RdbOps requires power-of-two p, got %d", p))
	}
	l := NewLayout(n, p)
	rel := RelRank(rank, root, p)
	step := 1
	for mask := 1; mask < p; mask <<= 1 {
		relDst := rel ^ mask
		peer := AbsRank(relDst, root, p)
		myRoot := rel &^ (mask - 1)
		dstRoot := relDst &^ (mask - 1)
		sendOff := l.Disp(myRoot)
		recvOff := l.Disp(dstRoot)
		dst = append(dst, sched.Op{
			Kind: sched.OpSendrecv,
			To:   peer, SendOff: sendOff, SendLen: l.Disp(myRoot+mask) - sendOff,
			From: peer, RecvOff: recvOff, RecvLen: l.Disp(dstRoot+mask) - recvOff,
			Tag: TagRdb, Step: step,
		})
		step++
	}
	return dst
}

// BinomialOps emits the whole-buffer binomial-tree broadcast MPICH uses
// for short messages (and for communicators smaller than MinRingProcs):
// every message carries all n bytes.
func BinomialOps(dst []sched.Op, rank, p, root, n, _ int) []sched.Op {
	rel := RelRank(rank, root, p)
	recvMask := CeilPow2(p)
	if rel != 0 {
		recvMask = rel & (-rel)
		dst = append(dst, sched.Op{
			Kind: sched.OpRecv, From: AbsRank(rel-recvMask, root, p),
			RecvOff: 0, RecvLen: n,
			Tag: TagBinomial, Step: 0,
		})
	}
	for mask := recvMask >> 1; mask > 0; mask >>= 1 {
		child := rel + mask
		if child >= p {
			continue
		}
		dst = append(dst, sched.Op{
			Kind: sched.OpSend, To: AbsRank(child, root, p),
			SendOff: 0, SendLen: n,
			Tag: TagBinomial, Step: 0,
		})
	}
	return dst
}

// binomialReversed is the binomial broadcast tree run backwards: every
// rank receives its children's buffers, smallest subtree first, then
// sends its own to its parent.
var binomialReversed = sched.Emitter(BinomialOps).Reverse()

// ReduceOps emits the binomial reduction: BinomialOps reversed, with
// every receive a Fold, so each rank combines its children's vectors
// into its own before it sends the result on and the root ends with
// every rank's contribution folded in once.
func ReduceOps(dst []sched.Op, rank, p, root, n, seg int) []sched.Op {
	start := len(dst)
	dst = binomialReversed(dst, rank, p, root, n, seg)
	for i := start; i < len(dst); i++ {
		dst[i].Fold = dst[i].Kind == sched.OpRecv
	}
	return dst
}

// DisseminationOps emits the dissemination barrier: ceil(log2 p) rounds
// in which rank r signals (r + 2^k) mod p and waits for (r - 2^k) mod p,
// so after round k every rank has heard, directly or through others,
// from the 2^(k+1)-1 ranks before it. Its messages carry no bytes; root,
// n and the segment size play no part.
func DisseminationOps(dst []sched.Op, rank, p, _, _, _ int) []sched.Op {
	for mask, step := 1, 1; mask < p; mask, step = mask<<1, step+1 {
		dst = append(dst, sched.Op{
			Kind: sched.OpSendrecv,
			To:   (rank + mask) % p, From: (rank - mask + p) % p,
			Tag: TagBarrier, Step: step,
		})
	}
	return dst
}
