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
// A rank learns its destinations' verdicts by emitting each one's ops
// once into dst's spare capacity. It keeps no state between calls and,
// once dst and its pooled scratch have grown, allocates nothing.
func (e Emitter) Elide() Emitter {
	return func(dst []Op, rank, p, root, n, seg int) []Op {
		start := len(dst)
		dst = e(dst, rank, p, root, n, seg)
		s := elisionPool.Get().(*elision)
		defer elisionPool.Put(s)
		s.drop = append(s.drop[:0], make([]bool, len(dst)-start)...)
		s.peers = s.peers[:0]
		for i := start; i < len(dst); i++ {
			to := dst[i].To
			if dst[i].Kind == OpRecv || slices.Contains(s.peers, to) {
				continue
			}
			s.peers = append(s.peers, to)
			s.start(to, root, n)
			theirs := e(dst, to, p, root, n, seg)
			dst = theirs[:len(dst)]
			for _, op := range theirs[len(dst):] {
				if op.Kind != OpSend {
					if kept := s.keep(op.RecvOff, op.RecvLen); op.From == rank {
						s.pair(dst[start:], to, op.Tag, kept)
					}
				}
			}
		}
		s.start(rank, root, n)
		out := dst[:start]
		for i, op := range dst[start:] {
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
			out = append(out, op)
		}
		return out
	}
}

// elision is Elide's scratch for one call.
type elision struct {
	own   IntervalSet // what the walked rank holds so far
	drop  []bool      // per op of the emitting rank: its send half goes
	peers []int       // destinations already walked
	next  []cursor    // per tag: where the search for its next send resumes
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
