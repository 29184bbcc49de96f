package bcast

import (
	"context"
	"errors"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Snapshot is the cluster's merged observability view: engine counters
// (sends and receives split by protocol, staged bytes, executor parks,
// queue high-water marks), world lifecycle (boots, runs, failures by
// cause), process-global buffer-pool activity, the retained operation
// spans when WithSpans is enabled, and — when TraceTraffic is on — the
// traced traffic totals. String renders a compact summary, WriteProm
// the Prometheus text format, and WriteChromeTrace a Chrome/Perfetto
// trace of the spans.
type Snapshot = metrics.Snapshot

// Span is one completed collective operation on one rank, as retained
// in a Snapshot built with WithSpans.
type Span = metrics.Span

// PoolClassStats is one buffer-pool size class's activity in a
// Snapshot. The pools are process-global, so the totals span every
// cluster in the process.
type PoolClassStats = metrics.PoolClassStats

// Metrics snapshots the cluster's instrumentation. Counters are always
// on and cost one atomic add per event on the rank that caused it;
// spans appear only when the cluster was built with WithSpans. The
// snapshot is a merged copy — reading it never perturbs the hot path —
// and, like Boots and Traffic, it must be taken between Runs, not
// during one.
func (cl *Cluster) Metrics() Snapshot {
	s := engine.CollectMetrics(cl.metrics)
	s.Executor = cl.Executor()
	s.Transport = cl.Transport()
	s.Boots = int64(cl.boots)
	s.Runs = cl.runs
	s.FailedRuns = cl.failedRuns
	if len(cl.retired) > 0 {
		retired := make(map[string]int64, len(cl.retired))
		for cause, n := range cl.retired {
			retired[cause] = n
		}
		s.RetiredWorlds = retired
	}
	if t, ok := cl.Traffic(); ok {
		s.Traffic = &t
	}
	return s
}

// retireCause classifies why a run failed, for the RetiredWorlds
// breakdown. Deadlock is checked before the generic abort because a
// deadlock error wraps both.
func retireCause(err error) string {
	switch {
	case errors.Is(err, mpi.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, mpi.ErrAborted):
		return "aborted"
	default:
		return "error"
	}
}
