// Package topology models the process-to-node placement of an MPI job on
// a multi-core cluster.
//
// The paper's evaluation platforms place ranks on nodes "in a blocked
// manner by default" (Hornet: 24 cores per node, Laki: 8), which
// determines how many transfers of each broadcast algorithm are cheap
// intra-node memory copies versus inter-node network messages. The
// tracing layer and the network simulator both classify traffic through a
// Map from this package.
package topology

import (
	"fmt"
	"sort"
)

// Cores-per-node presets for the paper's two evaluation platforms.
const (
	// HornetCoresPerNode is the core count of a Cray XC40 "Hornet" node
	// (dual 12-core Intel Haswell E5-2680v3).
	HornetCoresPerNode = 24
	// LakiCoresPerNode is the core count of a NEC "Laki" node (dual
	// 4-core Intel Xeon X5560).
	LakiCoresPerNode = 8
)

// Placement-kind names returned by Map.Kind. The tuning subsystem keys
// selection rules on these (tune.Env.Placement), so they are stable,
// serialization-friendly identifiers.
const (
	// KindSingle: every rank on one node.
	KindSingle = "single"
	// KindBlocked: nodes filled sequentially (rank r on node r/cores).
	KindBlocked = "blocked"
	// KindRoundRobin: ranks dealt cyclically (rank r on node r mod nodes).
	KindRoundRobin = "round-robin"
	// KindIrregular: any placement matching none of the named patterns.
	KindIrregular = "irregular"
)

// Map assigns every rank of a job to a node. Maps are immutable after
// construction, so the summaries the tuner reads on every broadcast
// (MaxCoresPerNode, Kind) are computed once, in build.
type Map struct {
	nodeOf   []int
	numNodes int
	byNode   map[int][]int
	maxCores int
	kind     string
}

func build(nodeOf []int) (*Map, error) {
	if len(nodeOf) == 0 {
		return nil, fmt.Errorf("topology: empty placement")
	}
	byNode := map[int][]int{}
	maxNode := -1
	for rank, node := range nodeOf {
		if node < 0 {
			return nil, fmt.Errorf("topology: rank %d placed on negative node %d", rank, node)
		}
		byNode[node] = append(byNode[node], rank)
		if node > maxNode {
			maxNode = node
		}
	}
	// Node ids must be dense 0..numNodes-1 so simulators can index arrays.
	for node := 0; node <= maxNode; node++ {
		if len(byNode[node]) == 0 {
			return nil, fmt.Errorf("topology: node %d has no ranks (node ids must be dense)", node)
		}
	}
	m := &Map{nodeOf: append([]int(nil), nodeOf...), numNodes: maxNode + 1, byNode: byNode}
	for _, rs := range byNode {
		m.maxCores = max(m.maxCores, len(rs))
	}
	m.kind = m.classify()
	return m, nil
}

// Custom builds a Map from an explicit rank-to-node assignment. Node ids
// must be dense (every id in [0, max] used).
func Custom(nodeOf []int) (*Map, error) { return build(nodeOf) }

// SingleNode places all np ranks on one node — the np=16 configuration of
// Figure 6(a), where every transfer is intra-node.
func SingleNode(np int) *Map {
	m, err := build(make([]int, max(np, 1)))
	if err != nil {
		panic(err) // unreachable: construction is always valid
	}
	return m
}

// Blocked fills nodes sequentially with coresPerNode ranks each — the
// default placement on the paper's systems ("all the processes are placed
// among the nodes in a blocked manner by default on Hornet").
func Blocked(np, coresPerNode int) *Map {
	if np <= 0 || coresPerNode <= 0 {
		panic(fmt.Sprintf("topology: Blocked(%d, %d): arguments must be positive", np, coresPerNode))
	}
	nodeOf := make([]int, np)
	for r := range nodeOf {
		nodeOf[r] = r / coresPerNode
	}
	m, err := build(nodeOf)
	if err != nil {
		panic(err) // unreachable
	}
	return m
}

// RoundRobin deals ranks across ceil(np/coresPerNode) nodes cyclically —
// the alternative placement used by the ablation benchmarks.
func RoundRobin(np, coresPerNode int) *Map {
	if np <= 0 || coresPerNode <= 0 {
		panic(fmt.Sprintf("topology: RoundRobin(%d, %d): arguments must be positive", np, coresPerNode))
	}
	numNodes := (np + coresPerNode - 1) / coresPerNode
	nodeOf := make([]int, np)
	for r := range nodeOf {
		nodeOf[r] = r % numNodes
	}
	m, err := build(nodeOf)
	if err != nil {
		panic(err) // unreachable
	}
	return m
}

// NP returns the number of ranks.
func (m *Map) NP() int { return len(m.nodeOf) }

// NumNodes returns the number of nodes in use.
func (m *Map) NumNodes() int { return m.numNodes }

// NodeOf returns the node hosting rank.
func (m *Map) NodeOf(rank int) int { return m.nodeOf[rank] }

// MaxCoresPerNode returns the largest number of ranks hosted on one node
// — the effective node occupancy the tuning subsystem keys rules on.
func (m *Map) MaxCoresPerNode() int { return m.maxCores }

// Kind classifies the placement pattern: KindSingle when one node hosts
// everything, KindBlocked when rank r sits on node r/cores (cores =
// MaxCoresPerNode), KindRoundRobin when rank r sits on node r mod nodes,
// and KindIrregular otherwise. Blocked and round-robin placements that
// collapse onto one node classify as KindSingle, so the classification
// depends only on the realized mapping, never on how it was constructed.
func (m *Map) Kind() string { return m.kind }

// classify computes Kind once, in build.
func (m *Map) classify() string {
	if m.numNodes == 1 {
		return KindSingle
	}
	blocked, rr := true, true
	cores := m.maxCores
	for r, node := range m.nodeOf {
		if node != r/cores {
			blocked = false
		}
		if node != r%m.numNodes {
			rr = false
		}
	}
	switch {
	case blocked:
		return KindBlocked
	case rr:
		return KindRoundRobin
	default:
		return KindIrregular
	}
}

// SameNode reports whether two ranks share a node (their communication is
// an intra-node memory copy rather than a network transfer).
func (m *Map) SameNode(a, b int) bool { return m.nodeOf[a] == m.nodeOf[b] }

// RanksOnNode returns the ranks hosted on node, in ascending order. The
// slice is the map's own (maps are immutable): callers must not modify it.
func (m *Map) RanksOnNode(node int) []int { return m.byNode[node] }

// Leader returns the lowest rank on node — the node's representative in
// SMP-aware collectives.
func (m *Map) Leader(node int) int { return m.byNode[node][0] }

// Leaders returns every node's leader, indexed by node.
func (m *Map) Leaders() []int {
	out := make([]int, m.numNodes)
	for node := range out {
		out[node] = m.Leader(node)
	}
	return out
}

// Subset derives the placement of a sub-communicator: member i of the new
// communicator is world rank members[i]. Node ids are re-densified while
// preserving relative order.
func (m *Map) Subset(members []int) (*Map, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("topology: empty subset")
	}
	// Collect used nodes in ascending id order, re-number densely.
	used := map[int]int{}
	var order []int
	for _, wr := range members {
		if wr < 0 || wr >= len(m.nodeOf) {
			return nil, fmt.Errorf("topology: subset member %d out of range", wr)
		}
		n := m.nodeOf[wr]
		if _, ok := used[n]; !ok {
			used[n] = 0
			order = append(order, n)
		}
	}
	sort.Ints(order)
	for i, n := range order {
		used[n] = i
	}
	nodeOf := make([]int, len(members))
	for i, wr := range members {
		nodeOf[i] = used[m.nodeOf[wr]]
	}
	return build(nodeOf)
}

// String summarizes the map, e.g. "topology{np=64 nodes=3 [24 24 16]}".
func (m *Map) String() string {
	counts := make([]int, m.numNodes)
	for _, n := range m.nodeOf {
		counts[n]++
	}
	return fmt.Sprintf("topology{np=%d nodes=%d %v}", len(m.nodeOf), m.numNodes, counts)
}
