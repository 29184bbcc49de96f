package sched

import "fmt"

// OnGroup appends the operations world rank `rank` executes when e runs
// on group — an ordered list of distinct world ranks, member i playing
// e's rank i of len(group) — rooted at world rank root, which must be a
// member. A rank outside the group executes nothing; a member's ops are
// e's for its index, with every peer mapped back through the group.
//
// It is the IR's one composition primitive. A proper subset is a phase
// of a larger algorithm (the SMP broadcasts run a tree on each node and
// a ring among the node leaders); a full-size group is a relabelling
// (the node-aware ring lays the ring out node by node). Buffer offsets
// are untouched: e sees the same n bytes, and since every algorithm here
// indexes its chunks by position in the group, any consistent naming of
// the positions preserves correctness — the verifier re-proves it.
func OnGroup(dst []Op, e Emitter, group []int, rank, root, n, seg int) []Op {
	me, groot := -1, -1
	for i, w := range group {
		if w == rank {
			me = i
		}
		if w == root {
			groot = i
		}
	}
	if groot < 0 {
		panic(fmt.Sprintf("sched: root %d is not in group %v", root, group))
	}
	if me < 0 {
		return dst
	}
	mark := len(dst)
	dst = e(dst, me, len(group), groot, n, seg)
	for i := mark; i < len(dst); i++ {
		op := &dst[i]
		if op.Kind != OpRecv {
			op.To = group[op.To]
		}
		if op.Kind != OpSend {
			op.From = group[op.From]
		}
	}
	return dst
}
