package core

import (
	"repro/internal/sched"
	"repro/internal/topology"
)

// This file contains extensions beyond the paper: a node-aware ring
// ordering (reducing inter-node ring crossings to one per node) and a
// pipelined chain broadcast (a classic long-message baseline the
// evaluation can be compared against). The multi-core aware broadcasts
// the paper itself discusses are in smp.go.

// NodeAwareOrder returns a permutation perm (virtual ring position ->
// actual rank) that lays the ring out node by node, so consecutive ring
// neighbours share a node wherever possible and the ring crosses node
// boundaries exactly NumNodes times. Within a node, ranks keep ascending
// order. For a blocked placement this is the identity.
func NodeAwareOrder(topo *topology.Map) []int {
	perm := make([]int, 0, topo.NP())
	for node := 0; node < topo.NumNodes(); node++ {
		perm = append(perm, topo.RanksOnNode(node)...)
	}
	return perm
}

// NodeAwareOps returns e with its ranks laid out in NodeAwareOrder: ring
// position i is played by world rank NodeAwareOrder(topo)[i]. A
// permutation is a full-size group, so this is sched.OnGroup and nothing
// else; chunk offsets follow ring positions, every rank still ends with
// the whole buffer, and message and byte counts are e's own.
func NodeAwareOps(topo *topology.Map, e sched.Emitter) sched.Emitter {
	order := NodeAwareOrder(topo)
	return func(dst []sched.Op, rank, _, root, n, seg int) []sched.Op {
		return sched.OnGroup(dst, e, order, rank, root, n, seg)
	}
}

// DefaultChainSegment is the segment size ChainOps uses when the caller
// passes segSize <= 0 (a typical pipeline depth trade-off).
const DefaultChainSegment = 8 << 10

// ChainOps emits the segmented pipeline-chain broadcast: the buffer is
// cut into ceil(n/segSize) segments; relative rank r receives each
// segment from r-1 and forwards it to r+1, interleaving receive and
// forward so segments stream down the chain. It is the classic
// long-message broadcast baseline (one full wavefront of latency, then
// bandwidth-bound), against which the scatter-ring family is compared in
// the extension benchmarks. An empty buffer sends nothing.
func ChainOps(dst []sched.Op, rank, p, root, n, segSize int) []sched.Op {
	if segSize <= 0 {
		segSize = DefaultChainSegment
	}
	rel := RelRank(rank, root, p)
	for s, off := 1, 0; off < n; s, off = s+1, off+segSize {
		length := min(segSize, n-off)
		if rel > 0 {
			dst = append(dst, sched.Op{
				Kind: sched.OpRecv, From: AbsRank(rel-1, root, p),
				RecvOff: off, RecvLen: length,
				Tag: TagChain, Step: s,
			})
		}
		if rel < p-1 {
			dst = append(dst, sched.Op{
				Kind: sched.OpSend, To: AbsRank(rel+1, root, p),
				SendOff: off, SendLen: length,
				Tag: TagChain, Step: s,
			})
		}
	}
	return dst
}
