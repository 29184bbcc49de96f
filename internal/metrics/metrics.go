// Package metrics is the engine's always-on instrumentation layer: a
// per-rank-sharded, atomic, allocation-free set of counters and gauges,
// plus opt-in per-operation span rings, merged into one Snapshot on the
// read side.
//
// The write side is built for the engine's steady-state discipline
// (≤2 allocs per operation inside a live world): every counter update is
// one atomic add or CAS-max on a pre-allocated, cache-line-padded
// per-rank shard, and span recording is an in-place struct write into a
// fixed-capacity ring. Nothing on the hot path allocates, takes a lock,
// or formats a string; all merging, labelling and encoding happens in
// Snapshot and its exporters, which callers invoke between runs.
//
// Sharding is by world rank because that is the engine's unit of
// concurrency — but a counter site may legally run on a peer's goroutine
// (a sender delivers into the receiver's endpoint), which is why shards
// are atomic rather than plain rank-owned ints.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counter indexes one accumulated quantity in a rank shard. Counters
// are summed across shards at snapshot time; the *Max entries are
// gauges merged by maximum instead (see Metrics.Max).
type Counter uint8

// The engine's counter set.
const (
	// EagerSends / RdvSends count messages issued, split by protocol:
	// copied into the receiver's hands at send time, or left in the
	// sender's buffer for the receiver to take (rendezvous-sized ones,
	// eager-sized ones the receiver's full credit window refused, and
	// late sends that found no receive posted).
	EagerSends Counter = iota
	RdvSends
	// EagerRecvs / RdvRecvs count messages delivered, split by protocol.
	EagerRecvs
	RdvRecvs
	// StagedBytes counts payload bytes of the eager protocol's
	// engine-side copy: into the pooled envelope itself for a tiny
	// payload, into a pooled staging buffer above that, or across a
	// transport.
	StagedBytes
	// Parks / Unparks count executor park/unpark transitions (every
	// blocking point in the engine is bracketed by exactly one pair).
	Parks
	Unparks
	// SlotWaits counts pooled-executor unparks that had to wait for a
	// free execution slot instead of reacquiring one immediately.
	SlotWaits
	// AbortedRuns counts world aborts (rank error, panic, cancellation,
	// timeout, deadlock).
	AbortedRuns
	// TagStreamHighWater is the highest collective tag-stream id any
	// rank reached within a run (max gauge; streams wrap at 256).
	TagStreamHighWater
	// PostedQueueMax / ArrivalQueueMax are the deepest posted-receive
	// and unexpected-arrival queues observed on any endpoint (max
	// gauges).
	PostedQueueMax
	ArrivalQueueMax
	// Wire* counters instrument a real-network transport (zero on the
	// in-process chan path): datagrams and wire bytes in each direction,
	// retransmits (every data datagram written again, whether a timeout
	// or the receiver's selective ACKs exposed the loss), and completed
	// ACK round-trips (acknowledgements that retired at least one
	// pending datagram).
	// Wire activity is process-level, so transports charge shard 0.
	WireDatagramsSent
	WireDatagramsRecv
	WireBytesSent
	WireBytesRecv
	WireRetransmits
	WireAckRoundTrips
	// Adaptive wire-path counters: ACK datagrams actually sent vs acks
	// coalesced away (in-order data packets whose cumulative ack was
	// deferred), batched send/recv syscalls (sendmmsg/recvmmsg),
	// congestion-window halvings (loss events, however detected), and
	// fast retransmits — the subset of WireRetransmits sent as soon as
	// selective ACKs showed three later datagrams had arrived.
	WireAcksSent
	WireAcksCoalesced
	WireBatchedWrites
	WireBatchedReads
	WireCwndHalvings
	WireFastRetransmits
	// WireDirectBytes counts payload bytes the kernel wrote straight
	// into a posted receive: fragments read into the window of the
	// buffer where they belong, charged when placement finds them there
	// (its share of WireBytesRecv is the placement hit rate).
	WireDirectBytes
	// Adaptive wire-path gauges (max over the run): congestion-window
	// high water in packets, the window's low water encoded inverted as
	// CwndLowWaterBase-cwnd (max of the inverse is the minimum; Snapshot
	// decodes it back), and the largest smoothed-RTT / retransmit-timeout
	// estimate any flow reached, in microseconds.
	WireCwndHighWater
	WireCwndLowWaterInv
	WireSRTTMaxMicros
	WireRTOMaxMicros

	numCounters
)

// CwndLowWaterBase is the encoding base for WireCwndLowWaterInv: writers
// record Max(CwndLowWaterBase - cwnd) so the shard-merged maximum is the
// observed minimum window. It only needs to exceed any plausible window
// in packets.
const CwndLowWaterBase = 1 << 20

// maxGauge reports whether c merges by maximum rather than by sum.
func maxGauge(c Counter) bool {
	switch c {
	case TagStreamHighWater, PostedQueueMax, ArrivalQueueMax,
		WireCwndHighWater, WireCwndLowWaterInv, WireSRTTMaxMicros, WireRTOMaxMicros:
		return true
	}
	return false
}

// shardPad rounds the shard up to a multiple of 128 bytes (two typical
// cache lines), so two ranks' hot counters never share a line.
const shardPad = (128 - (int(numCounters)*8)%128) % 128

type shard struct {
	c [numCounters]atomic.Int64
	_ [shardPad]byte
}

// Metrics is one world-shaped set of shards and (optionally) span
// rings. A Metrics outlives any single engine world: the facade's
// Cluster passes the same Metrics into every world it boots, so
// counters and spans accumulate across fallback reboots.
type Metrics struct {
	shards []shard
	rings  []SpanRing // empty when spans are disabled
}

// New builds a Metrics for np ranks. spanCap > 0 additionally enables
// per-operation spans with a ring of that capacity per rank; spanCap 0
// keeps spans off (counters are always on).
func New(np, spanCap int) *Metrics {
	if np <= 0 {
		panic(fmt.Sprintf("metrics: non-positive np %d", np))
	}
	if spanCap < 0 {
		spanCap = 0
	}
	m := &Metrics{shards: make([]shard, np)}
	if spanCap > 0 {
		m.rings = make([]SpanRing, np)
		for r := range m.rings {
			m.rings[r] = SpanRing{rank: r, buf: make([]Span, spanCap)}
		}
	}
	return m
}

// NP returns the rank count the Metrics was sized for.
func (m *Metrics) NP() int { return len(m.shards) }

// SpanCap returns the per-rank span ring capacity (0 = spans disabled).
func (m *Metrics) SpanCap() int {
	if len(m.rings) == 0 {
		return 0
	}
	return len(m.rings[0].buf)
}

// Add accumulates d into rank's shard for counter c. It is the hot-path
// write: one atomic add, no allocation.
func (m *Metrics) Add(rank int, c Counter, d int64) {
	m.shards[rank].c[c].Add(d)
}

// Max raises rank's gauge c to v if v exceeds the current value
// (CAS-max; lock- and allocation-free).
func (m *Metrics) Max(rank int, c Counter, v int64) {
	g := &m.shards[rank].c[c]
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load reads rank's counter or gauge c, which Snapshot merges over the
// ranks.
func (m *Metrics) Load(rank int, c Counter) int64 {
	return m.shards[rank].c[c].Load()
}

// Ring returns rank's span ring, or nil when spans are disabled — the
// nil check is the whole cost of disabled spans at an emission site.
func (m *Metrics) Ring(rank int) *SpanRing {
	if len(m.rings) == 0 {
		return nil
	}
	return &m.rings[rank]
}

// Snapshot merges every shard and ring into a point-in-time Snapshot.
// Call it between runs: counters are atomic, but span rings are written
// lock-free by their rank goroutines, so a mid-run snapshot may observe
// a torn span.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{NP: len(m.shards), SpanCap: m.SpanCap()}
	var merged [numCounters]int64
	for r := range m.shards {
		for c := Counter(0); c < numCounters; c++ {
			v := m.Load(r, c)
			if maxGauge(c) {
				if v > merged[c] {
					merged[c] = v
				}
			} else {
				merged[c] += v
			}
		}
	}
	s.EagerSends = merged[EagerSends]
	s.RdvSends = merged[RdvSends]
	s.EagerRecvs = merged[EagerRecvs]
	s.RdvRecvs = merged[RdvRecvs]
	s.StagedBytes = merged[StagedBytes]
	s.Parks = merged[Parks]
	s.Unparks = merged[Unparks]
	s.SlotWaits = merged[SlotWaits]
	s.AbortedRuns = merged[AbortedRuns]
	s.TagStreamHighWater = merged[TagStreamHighWater]
	s.PostedQueueMax = merged[PostedQueueMax]
	s.ArrivalQueueMax = merged[ArrivalQueueMax]
	s.WireDatagramsSent = merged[WireDatagramsSent]
	s.WireDatagramsRecv = merged[WireDatagramsRecv]
	s.WireBytesSent = merged[WireBytesSent]
	s.WireBytesRecv = merged[WireBytesRecv]
	s.WireRetransmits = merged[WireRetransmits]
	s.WireAckRoundTrips = merged[WireAckRoundTrips]
	s.WireAcksSent = merged[WireAcksSent]
	s.WireAcksCoalesced = merged[WireAcksCoalesced]
	s.WireBatchedWrites = merged[WireBatchedWrites]
	s.WireBatchedReads = merged[WireBatchedReads]
	s.WireCwndHalvings = merged[WireCwndHalvings]
	s.WireFastRetransmits = merged[WireFastRetransmits]
	s.WireDirectBytes = merged[WireDirectBytes]
	s.WireCwndHighWater = merged[WireCwndHighWater]
	if inv := merged[WireCwndLowWaterInv]; inv > 0 {
		s.WireCwndLowWater = CwndLowWaterBase - inv
	}
	s.WireSRTTMaxMicros = merged[WireSRTTMaxMicros]
	s.WireRTOMaxMicros = merged[WireRTOMaxMicros]
	for r := range m.rings {
		ring := &m.rings[r]
		s.Spans = append(s.Spans, ring.Spans()...)
		s.SpansRecorded += ring.Recorded()
		s.SpanDrops += ring.Dropped()
	}
	sortSpans(s.Spans)
	return s
}
