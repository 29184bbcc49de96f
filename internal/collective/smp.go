package collective

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
)

// bcastSMP is the multi-core aware broadcast the paper describes for
// medium messages with non-power-of-two process counts (Section I):
//
//  1. intra-node binomial broadcast on the root's node;
//  2. inter-node broadcast among the node leaders using
//     scatter-ring-allgather (native or tuned);
//  3. intra-node binomial broadcast on every other node.
//
// Sub-communicators are built with Split: one per node, plus a leaders
// communicator ordered by node id. Each phase is a static schedule run by
// the executor on its sub-communicator.
func bcastSMP(c mpi.Comm, buf []byte, root int, tuned bool) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	topo := c.Topology()
	if topo.NumNodes() == 1 {
		return runStatic(c, buf, root, 0, core.BinomialOps, false)
	}
	rank := c.Rank()
	myNode := topo.NodeOf(rank)
	rootNode := topo.NodeOf(root)

	nodeCommI, err := c.Split(myNode, rank)
	if err != nil {
		return fmt.Errorf("collective: smp bcast node split: %w", err)
	}
	nodeComm := nodeCommI
	leaderColor := mpi.Undefined
	if topo.IsLeader(rank) {
		leaderColor = 0
	}
	leadersComm, err := c.Split(leaderColor, myNode)
	if err != nil {
		return fmt.Errorf("collective: smp bcast leaders split: %w", err)
	}

	// Phase 1: intra-node broadcast on the root's node. The node
	// communicator is ordered by world rank, so the local rank of the
	// root is its index among the node's ranks.
	if myNode == rootNode {
		localRoot := indexOf(topo.RanksOnNode(rootNode), root)
		if localRoot < 0 {
			return fmt.Errorf("collective: smp bcast: root %d not among ranks %v of its node %d (inconsistent topology)",
				root, topo.RanksOnNode(rootNode), rootNode)
		}
		if err := runStatic(nodeComm, buf, localRoot, 0, core.BinomialOps, false); err != nil {
			return fmt.Errorf("collective: smp bcast phase 1: %w", err)
		}
	}

	// Phase 2: inter-node broadcast among leaders (keys were node ids, so
	// leader of node k has leaders-comm rank k).
	if leadersComm != nil {
		ring := core.BcastNativeOps
		if tuned {
			ring = core.BcastOptOps
		}
		if err := runStatic(leadersComm, buf, rootNode, 0, ring, false); err != nil {
			return fmt.Errorf("collective: smp bcast phase 2: %w", err)
		}
	}

	// Phase 3: intra-node broadcast everywhere else, from the local
	// leader (lowest world rank on the node = local rank 0).
	if myNode != rootNode {
		if err := runStatic(nodeComm, buf, 0, 0, core.BinomialOps, false); err != nil {
			return fmt.Errorf("collective: smp bcast phase 3: %w", err)
		}
	}
	return nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// BcastSMP is the multi-core aware broadcast with the native enclosed
// ring in its inter-node phase.
func BcastSMP(c mpi.Comm, buf []byte, root int) error {
	return bcastSMP(c, buf, root, false)
}

// BcastSMPOpt is the multi-core aware broadcast with the paper's tuned
// non-enclosed ring in its inter-node phase.
func BcastSMPOpt(c mpi.Comm, buf []byte, root int) error {
	return bcastSMP(c, buf, root, true)
}
