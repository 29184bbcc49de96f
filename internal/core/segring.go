package core

import "repro/internal/sched"

// This file generalizes segmentation from the chain broadcast to the
// scatter-ring family: a segmented enclosed ring allgather that pipelines
// each ring step in segSize pieces. The ring structure — P-1 steps, each
// circulating one chunk per rank — is unchanged; every chunk transfer is
// split into ceil(chunk/segSize) back-to-back segment messages, so large
// rendezvous transfers become a stream of smaller ones that overlap
// inside each step's concurrent send/receive halves and across the
// engine's eager window. With segSize >= ceil(n/P) every chunk is a
// single segment: that is how the unsegmented ring is emitted (see
// wholeChunks). The tuned rings are its broadcasts elided (BcastOptOps).

// DefaultRingSegment is the segment size used by the segmented ring
// allgathers when the caller passes segSize <= 0. It matches the engine's
// default eager limit, so default-segmented chunks take the eager path.
const DefaultRingSegment = 64 << 10

// RingSegments returns how many segments a count-byte chunk is cut into
// at the given segment size. Empty chunks still occupy one zero-byte
// round, mirroring the enclosed ring's zero-byte envelopes.
func RingSegments(count, segSize int) int {
	if count <= segSize {
		return 1
	}
	return (count + segSize - 1) / segSize
}

// SegSpan returns the offset and length of segment s within a count-byte
// chunk (offset relative to the chunk start). The final segment may be
// short; the single segment of an empty chunk is zero-length.
func SegSpan(count, segSize, s int) (off, length int) {
	off = s * segSize
	if off > count {
		off = count
	}
	length = count - off
	if length > segSize {
		length = segSize
	}
	return off, length
}

// RingNativeSegOps emits the segmented enclosed ring allgather: P-1 ring
// steps, and in step i the rank forwards to its right neighbour the chunk
// it received in step i-1 (starting from its own) and receives the next
// one from its left neighbour, each chunk in segSize pieces.
func RingNativeSegOps(dst []sched.Op, rank, p, root, n, segSize int) []sched.Op {
	if segSize <= 0 {
		segSize = DefaultRingSegment
	}
	l := NewLayout(n, p)
	left, right := ringPeers(rank, p)
	// The chunk sent in step i is the one received in step i-1, so the
	// relative ranks step down the ring together.
	relJ := RelRank(rank, root, p)
	relJnext := relJ - 1
	for i := 1; i < p; i++ {
		if relJnext < 0 {
			relJnext += p
		}
		sendCnt, recvCnt := l.Count(relJ), l.Count(relJnext)
		sendDisp, recvDisp := l.Disp(relJ), l.Disp(relJnext)
		// A short chunk's half runs out of segments before the other's.
		sendSegs, recvSegs := RingSegments(sendCnt, segSize), RingSegments(recvCnt, segSize)
		for s := 0; s < max(sendSegs, recvSegs); s++ {
			op := sched.Op{Tag: TagRing, Step: i}
			if s < sendSegs {
				off, length := SegSpan(sendCnt, segSize, s)
				op.To, op.SendOff, op.SendLen = right, sendDisp+off, length
			}
			if s < recvSegs {
				off, length := SegSpan(recvCnt, segSize, s)
				op.From, op.RecvOff, op.RecvLen = left, recvDisp+off, length
			}
			switch {
			case s < sendSegs && s < recvSegs:
				op.Kind = sched.OpSendrecv
			case s < recvSegs:
				op.Kind = sched.OpRecv
			default:
				op.Kind = sched.OpSend
			}
			dst = append(dst, op)
		}
		relJ, relJnext = relJnext, relJnext-1
	}
	return dst
}
