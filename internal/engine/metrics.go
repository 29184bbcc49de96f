package engine

import (
	"repro/internal/bufpool"
	"repro/internal/metrics"
)

// CollectMetrics merges m into a Snapshot and folds in the
// process-global buffer-pool activity, which the metrics package itself
// cannot reach (it is a leaf; bufpool sits beside it). Every snapshot
// assembler — the facade's Cluster.Metrics, the benchmark harness —
// goes through here so the two halves cannot drift apart.
func CollectMetrics(m *metrics.Metrics) metrics.Snapshot {
	s := m.Snapshot()
	classes, oGets, oPuts := bufpool.Stats()
	for _, c := range classes {
		s.BufPool = append(s.BufPool, metrics.PoolClassStats{
			Size: c.Size, Gets: c.Gets, Puts: c.Puts, Misses: c.Misses,
		})
	}
	s.OversizeGets, s.OversizePuts = oGets, oPuts
	return s
}
