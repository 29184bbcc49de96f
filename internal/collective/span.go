package collective

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Span op names. A Plan carries one, and Plan.Execute, the one emission
// site, passes it to SpanRing.Record, so recording never builds a
// string. A span is one run of a schedule. The broadcast op carries the
// registry algorithm name alongside; the fixed-algorithm collectives
// leave it empty.
const (
	opBcast     = "bcast"
	opScatter   = "scatter"
	opGather    = "gather"
	opAllgather = "allgather"
	opBarrier   = "barrier"
	opReduce    = "reduce"
	opAllreduce = "allreduce"
)

// spanStart opens the span bracket around a run of a schedule: it reads
// c's ring and the clock only when spans are actually enabled.
// Plan.Execute closes the bracket with ring.Record on the success path (failed
// operations abort the world — the AbortedRuns counter covers them; a
// half-run span would only pollute the timeline). The whole
// disabled-spans cost is one method call and a nil check.
func spanStart(c mpi.Comm) (*metrics.SpanRing, time.Time) {
	if ring := c.SpanRing(); ring != nil {
		return ring, time.Now()
	}
	return nil, time.Time{}
}
