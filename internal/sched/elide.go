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
// A rank learns its destinations' verdicts by emitting its own ops and
// each destination's once, into scratch of its own, and appends to dst
// only the ops it keeps: dst past the returned length is left as it was.
// It keeps no state between calls and, once dst and its pooled scratch
// have grown, allocates nothing.
func (e Emitter) Elide() Emitter {
	return func(dst []Op, rank, p, root, n, seg int) []Op {
		s := elisionPool.Get().(*elision)
		defer elisionPool.Put(s)
		s.mine = e(s.mine[:0], rank, p, root, n, seg)
		mine := s.mine
		s.drop = append(s.drop[:0], make([]bool, len(mine))...)
		s.peers = s.peers[:0]
		for i := range mine {
			to := mine[i].To
			if mine[i].Kind == OpRecv || slices.Contains(s.peers, to) {
				continue
			}
			s.peers = append(s.peers, to)
			s.start(to, root, n)
			s.theirs = e(s.theirs[:0], to, p, root, n, seg)
			for _, op := range s.theirs {
				if op.Kind != OpSend {
					if kept := s.keep(op.RecvOff, op.RecvLen); op.From == rank {
						s.pair(mine, to, op.Tag, kept)
					}
				}
			}
		}
		s.start(rank, root, n)
		for i, op := range mine {
			if s.drop[i] {
				if op.Kind == OpSend {
					continue
				}
				op.Kind, op.To, op.SendOff, op.SendLen = OpRecv, 0, 0, 0
			}
			if op.Kind != OpSend && !s.keep(op.RecvOff, op.RecvLen) {
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

// elision is Elide's scratch for one call.
type elision struct {
	mine   []Op        // the emitting rank's ops
	theirs []Op        // the walked destination's ops
	own    IntervalSet // what the walked rank holds so far
	drop   []bool      // per op of the emitting rank: its send half goes
	peers  []int       // destinations already walked
	next   []cursor    // per tag: where the search for its next send resumes
}

type cursor struct{ tag, at int }

var elisionPool = sync.Pool{New: func() any { return new(elision) }}

// start begins a walk of rank's ops.
func (s *elision) start(rank, root, n int) {
	s.own.Reset()
	if rank == root {
		s.own.Add(0, n)
	}
	s.next = s.next[:0]
}

// keep reports whether the walked rank keeps a receive of n bytes at off,
// and if so records them as held.
func (s *elision) keep(off, n int) bool {
	if s.own.Contains(off, off+n) {
		return false
	}
	s.own.Add(off, off+n)
	return true
}

// pair finds the send half in mine that the destination's next receive
// from this rank with tag matches, and drops it unless that receive was
// kept.
func (s *elision) pair(mine []Op, to, tag int, kept bool) {
	i := slices.IndexFunc(s.next, func(c cursor) bool { return c.tag == tag })
	if i < 0 {
		i = len(s.next)
		s.next = append(s.next, cursor{tag: tag})
	}
	c := &s.next[i]
	for mine[c.at].Kind == OpRecv || mine[c.at].To != to || mine[c.at].Tag != tag {
		c.at++
	}
	s.drop[c.at] = !kept
	c.at++
}
