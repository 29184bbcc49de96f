package sched

import "slices"

// ElidePerRank is the reference Elide's one-walk build is held to: every
// rank on its own emits its ops and each destination's, replays each
// destination's receives to learn their verdicts, and pairs them with its
// sends through a cursor per tag. It keeps nothing between calls but its
// scratch, so one oracle serves one goroutine.
func ElidePerRank(e Emitter) Emitter {
	var mine, theirs []Op
	var drop []bool
	return func(dst []Op, rank, p, root, n, seg int) []Op {
		var own IntervalSet
		keep := func(off, n int) bool {
			if own.Contains(off, off+n) {
				return false
			}
			own.Add(off, off+n)
			return true
		}
		start := func(rank int) {
			own.Reset()
			if rank == root {
				own.Add(0, n)
			}
		}
		mine = e(mine[:0], rank, p, root, n, seg)
		drop = append(drop[:0], make([]bool, len(mine))...)
		var peers []int
		for i := range mine {
			to := mine[i].To
			if mine[i].Kind == OpRecv || slices.Contains(peers, to) {
				continue
			}
			peers = append(peers, to)
			start(to)
			next := map[int]int{} // per tag: where the search for its next send resumes
			theirs = e(theirs[:0], to, p, root, n, seg)
			for _, op := range theirs {
				if op.Kind == OpSend {
					continue
				}
				kept := keep(op.RecvOff, op.RecvLen)
				if op.From != rank {
					continue
				}
				at := next[op.Tag]
				for mine[at].Kind == OpRecv || mine[at].To != to || mine[at].Tag != op.Tag {
					at++
				}
				drop[at] = !kept
				next[op.Tag] = at + 1
			}
		}
		start(rank)
		for i, op := range mine {
			if drop[i] {
				if op.Kind == OpSend {
					continue
				}
				op.Kind, op.To, op.SendOff, op.SendLen = OpRecv, 0, 0, 0
			}
			if op.Kind != OpSend && !keep(op.RecvOff, op.RecvLen) {
				if op.Kind == OpRecv {
					continue
				}
				op.Kind, op.From, op.RecvOff, op.RecvLen = OpSend, 0, 0, 0
			}
			dst = append(dst, op)
		}
		return dst
	}
}
