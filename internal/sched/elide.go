package sched

import (
	"slices"
	"sync"
)

// Elide returns the emitter of e without its redundant transfers. What a
// rank holds starts as a broadcast's (the root all n bytes, every other
// rank nothing) and grows with every receive it keeps. A rank drops each
// receive half that brings it no byte it lacks: an empty transfer, or a
// range it holds or received before; a partly held range stays whole. It
// drops a send half exactly when the destination drops the matching
// receive, paired FIFO per (destination, tag), and a Sendrecv that loses
// one half becomes a Send or a Recv with that half's fields zeroed.
//
// A rank's receive verdicts depend on its own ops alone, so one pass over
// e's whole program gives every verdict. The returned emitter keeps the
// programs it built, one per (p, root, n, seg), in a memo: the first call
// for a shape builds it while the others wait, and every call appends its
// rank's slice to dst, allocating nothing else on a hit.
func (e Emitter) Elide() Emitter {
	m := &memo{}
	return func(dst []Op, rank, p, root, n, seg int) []Op {
		return append(dst, m.get(e, shape{p, root, n, seg}, rank)...)
	}
}

// memoCap bounds the ops an elided emitter keeps: 32,768 ops (2.3 MB).
// msgrate-np64's shape is 4,158; np 64 at 8 MiB in 8 KiB segments,
// 64,638, is dropped once its ranks have taken their slices.
const memoCap = 1 << 15

type shape struct{ p, root, n, seg int }

// elided is one shape's elided program: rank r's ops are ops[at[r]:at[r+1]].
type elided struct {
	shape
	ops   []Op
	at    []int
	taken int // slices handed out
}

// memo is an elided emitter's programs, most recently used first, and
// the ops they hold, counting each program as one more.
type memo struct {
	mu    sync.Mutex
	progs []*elided
	held  int
}

// get returns rank's slice of the shape's elided program, building it
// under the lock on the first call. Past memoCap it drops the least
// recently used programs, but not the most recent one before its p
// slices have been taken.
func (m *memo) get(e Emitter, k shape, rank int) []Op {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.IndexFunc(m.progs, func(pr *elided) bool { return pr.shape == k })
	if i < 0 {
		pr := &elided{shape: k}
		pr.build(e)
		m.progs, i = append(m.progs, pr), len(m.progs)
		m.held += len(pr.ops) + 1
	}
	pr := m.progs[i]
	copy(m.progs[1:i+1], m.progs[:i])
	m.progs[0] = pr
	pr.taken++
	for j := len(m.progs) - 1; j >= 0 && m.held > memoCap; j-- {
		if old := m.progs[j]; j > 0 || old.taken >= old.p {
			m.held -= len(old.ops) + 1
			m.progs = slices.Delete(m.progs, j, j+1)
		}
	}
	return pr.ops[pr.at[rank]:pr.at[rank+1]]
}

// build emits every rank's ops of e and elides them in two passes. The
// first notes, rank by rank, which receives bring nothing new; the second
// pairs each send half with its receive, FIFO per (source, destination,
// tag), drops it with it, and compacts the rank's ops in place.
func (pr *elided) build(e Emitter) {
	p, root, n, seg := pr.p, pr.root, pr.n, pr.seg
	var ops []Op
	var recvs []recvHalf
	at, rat := make([]int, p+1), make([]int, p+1) // rank r's ops[at[r]:at[r+1]], recvs[rat[r]:rat[r+1]]
	var own IntervalSet
	for r := range p {
		if ops = e(ops, r, p, root, n, seg); r == 0 {
			ops = slices.Grow(ops, len(ops)*(p-1)) // ranks emit about as many ops
			recvs = make([]recvHalf, 0, cap(ops))
		}
		at[r+1] = len(ops)
		own.Reset()
		if r == root {
			own.Add(0, n)
		}
		for i := at[r]; i < at[r+1]; i++ {
			if op := &ops[i]; op.Kind != OpSend {
				lo, hi := op.RecvOff, op.RecvOff+op.RecvLen
				recvs = append(recvs, recvHalf{op.From, op.Tag, own.Contains(lo, hi)})
				own.Add(lo, hi)
			}
		}
		rat[r+1] = len(recvs)
	}
	var cur []cursor // rank r's, per (destination, tag): the next receive to pair
	out := ops[:0]   // overwrites ops behind the read
	for r := range p {
		lo, hi, mine := at[r], at[r+1], rat[r]
		cur = cur[:0]
		at[r] = len(out)
		for i := lo; i < hi; i++ {
			op := ops[i]
			if op.Kind != OpRecv {
				j := slices.IndexFunc(cur, func(c cursor) bool { return c.to == op.To && c.tag == op.Tag })
				if j < 0 {
					j, cur = len(cur), append(cur, cursor{op.To, op.Tag, 0})
				}
				c, theirs := &cur[j], recvs[rat[op.To]:rat[op.To+1]]
				for c.at < len(theirs) && (theirs[c.at].from != r || theirs[c.at].tag != op.Tag) {
					c.at++
				}
				if c.at++; c.at <= len(theirs) && theirs[c.at-1].gone {
					if op.Kind == OpSend {
						continue
					}
					op.Kind, op.To, op.SendOff, op.SendLen = OpRecv, 0, 0, 0
				}
			}
			if op.Kind != OpSend {
				if mine++; recvs[mine-1].gone {
					if op.Kind == OpRecv {
						continue
					}
					op.Kind, op.From, op.RecvOff, op.RecvLen = OpSend, 0, 0, 0
				}
			}
			out = append(out, op)
		}
	}
	if at[p] = len(out); cap(out) > len(out)+len(out)/4 { // rank 0's count was a poor estimate
		out = slices.Clone(out)
	}
	pr.ops, pr.at = out, at
}

type recvHalf struct {
	from, tag int
	gone      bool
}

type cursor struct{ to, tag, at int }
