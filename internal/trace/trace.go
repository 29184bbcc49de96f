// Package trace totals the traffic of MPI-like programs. The engine's
// communicator records its own: once a Collector has attached a rank's
// metrics.TrafficRow to it, it counts every message it sends, classified
// intra- versus inter-node through its topology and broken down by tag —
// the reserved per-phase tags of internal/core let tests separate
// scatter traffic from ring traffic and cross-validate measured counts
// against the paper's analytic model — and every receive it completes.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Counts accumulates message and byte totals.
type Counts = metrics.Counts

// Stats is the aggregated view over all of a Collector's slots.
type Stats struct {
	// Total counts every sent message.
	Total Counts
	// Intra counts messages between ranks on the same node.
	Intra Counts
	// Inter counts messages crossing nodes.
	Inter Counts
	// ByTag breaks the totals down by message tag (the collective
	// algorithms use one reserved tag per phase).
	ByTag map[int]Counts
	// Recvs counts completed receives (should equal Total.Messages after
	// a clean run).
	Recvs int64
}

// String renders a compact summary. Recvs is printed next to the send
// totals so a clean run's invariant (recvs == msgs) — and any breach of
// it — is visible at a glance.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d recvs=%d bytes=%d intra=%d/%d inter=%d/%d",
		s.Total.Messages, s.Recvs, s.Total.Bytes,
		s.Intra.Messages, s.Intra.Bytes,
		s.Inter.Messages, s.Inter.Bytes)
	tags := make([]int, 0, len(s.ByTag))
	for tag := range s.ByTag {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	for _, tag := range tags {
		c := s.ByTag[tag]
		fmt.Fprintf(&b, " tag[%#x]=%d/%d", tag, c.Messages, c.Bytes)
	}
	return b.String()
}

// recorder is the capability of a communicator that records its own
// traffic: WithTraffic returns a view of it that counts into row, as do
// the views later made from that one (WithContext, Split). The engine's
// communicator implements it.
type recorder interface {
	WithTraffic(row *metrics.TrafficRow) mpi.Comm
}

// Collector owns one traffic row per slot (one slot per rank) and sums
// them. Stats must only be called after the ranks have finished.
type Collector struct {
	mu   sync.Mutex
	rows []*metrics.TrafficRow
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// WrapSlot returns c recording into slot's row. Calls with the same slot
// share one row, so counts accumulate over any number of sequential runs
// on a reused world while the collector's memory stays constant. Like any
// Comm, the returned communicator — and therefore the slot's row — must
// be driven by one rank goroutine at a time; distinct slots may be
// wrapped concurrently. It panics when c cannot record its traffic:
// tracing must never silently count nothing.
func (col *Collector) WrapSlot(slot int, c mpi.Comm) mpi.Comm {
	rc, ok := c.(recorder)
	if !ok {
		panic(fmt.Sprintf("trace: %T cannot record its traffic", c))
	}
	col.mu.Lock()
	for len(col.rows) <= slot {
		col.rows = append(col.rows, nil)
	}
	row := col.rows[slot]
	if row == nil {
		row = new(metrics.TrafficRow)
		col.rows[slot] = row
	}
	col.mu.Unlock()
	return rc.WithTraffic(row)
}

// Stats sums every row. Call only after the traced program finished.
func (col *Collector) Stats() Stats {
	col.mu.Lock()
	defer col.mu.Unlock()
	s := Stats{ByTag: map[int]Counts{}}
	for _, r := range col.rows {
		if r == nil {
			continue
		}
		s.Total.Add(r.Total)
		s.Intra.Add(r.Intra)
		s.Inter.Add(r.Inter)
		s.Recvs += r.Recvs
		for tag, c := range r.ByTag {
			cur := s.ByTag[tag]
			cur.Add(*c)
			s.ByTag[tag] = cur
		}
	}
	return s
}
