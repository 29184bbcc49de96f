package core

import (
	"repro/internal/sched"
	"repro/internal/topology"
)

// The multi-core aware broadcast the paper describes for medium messages
// with non-power-of-two process counts (Section I), as a schedule over
// the node map:
//
//  1. whole-buffer binomial tree on the root's node, from the root;
//  2. scatter + ring allgather among the node leaders (the lowest rank
//     of each node, in node order), from the root node's leader;
//  3. whole-buffer binomial tree on every other node, from its leader.
//
// Each phase is an emitter of this package run on a group of world ranks
// (sched.OnGroup): a rank's ops are the phases it is a member of, in
// order, so the root node's leader receives the buffer in phase 1 before
// it scatters it in phase 2. Only phase 2 crosses nodes.

// SMPNativeOps returns the multi-core aware broadcast over topo with the
// enclosed ring between the leaders.
func SMPNativeOps(topo *topology.Map) sched.Emitter { return smpOps(topo, BcastNativeOps) }

// SMPOptOps returns the multi-core aware broadcast over topo with the
// paper's non-enclosed ring between the leaders.
func SMPOptOps(topo *topology.Map) sched.Emitter { return smpOps(topo, BcastOptOps) }

func smpOps(topo *topology.Map, inter sched.Emitter) sched.Emitter {
	leaders := topo.Leaders()
	return func(dst []sched.Op, rank, _, root, n, seg int) []sched.Op {
		node, rootNode := topo.NodeOf(rank), topo.NodeOf(root)
		if node == rootNode {
			dst = sched.OnGroup(dst, BinomialOps, topo.RanksOnNode(node), rank, root, n, seg)
		}
		dst = sched.OnGroup(dst, inter, leaders, rank, leaders[rootNode], n, seg)
		if node != rootNode {
			dst = sched.OnGroup(dst, BinomialOps, topo.RanksOnNode(node), rank, leaders[node], n, seg)
		}
		return dst
	}
}
