package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PoolClassStats is one bufpool size class's activity. Gets that did
// not hit a recycled buffer appear in Misses, so the hit count is
// Gets - Misses.
type PoolClassStats struct {
	Size   int // class capacity in bytes
	Gets   int64
	Puts   int64
	Misses int64
}

// TrafficTotals mirrors the trace collector's aggregate view so the
// Snapshot is the one observability surface: send-side message/byte
// totals split intra- vs inter-node, plus completed receives (which
// equal Messages after a clean run).
type TrafficTotals struct {
	Messages, Bytes           int64
	IntraMessages, IntraBytes int64
	InterMessages, InterBytes int64
	Recvs                     int64
}

// Snapshot is the merged, point-in-time view of a Metrics plus the
// process- and cluster-level observables its assemblers fold in
// (bufpool activity, world lifecycle, traced traffic).
type Snapshot struct {
	NP        int
	Executor  string // rank-execution substrate label; "" when unknown
	Transport string // point-to-point transport label ("chan", "udp"); "" when unknown

	// Engine counters (summed over ranks).
	EagerSends, RdvSends int64
	EagerRecvs, RdvRecvs int64
	StagedBytes          int64
	Parks, Unparks       int64
	SlotWaits            int64
	AbortedRuns          int64

	// Wire transport counters (zero on the in-process chan path):
	// datagrams and bytes in each direction, data datagrams written
	// again (on a timeout or on selective-ACK evidence), and ACK
	// round-trips that retired pending datagrams.
	WireDatagramsSent, WireDatagramsRecv int64
	WireBytesSent, WireBytesRecv         int64
	WireRetransmits                      int64
	WireAckRoundTrips                    int64

	// Adaptive wire-path counters: ACK datagrams sent vs acks coalesced
	// away by delayed cumulative acking, batched send/recv syscalls,
	// congestion-window halvings (loss events), and the share of
	// WireRetransmits that selective ACKs triggered ahead of any timeout.
	WireAcksSent, WireAcksCoalesced     int64
	WireBatchedWrites, WireBatchedReads int64
	WireCwndHalvings                    int64
	WireFastRetransmits                 int64
	// WireDirectBytes is the part of WireBytesRecv that was payload the
	// kernel wrote straight into a posted receive (no user-space copy).
	WireDirectBytes int64
	// Adaptive wire-path gauges: congestion-window high/low water in
	// packets (0 when congestion control never ran) and the largest
	// smoothed-RTT / RTO estimate any flow reached, in microseconds.
	WireCwndHighWater, WireCwndLowWater int64
	WireSRTTMaxMicros, WireRTOMaxMicros int64

	// Engine gauges (maximum over ranks).
	TagStreamHighWater int64
	PostedQueueMax     int64
	ArrivalQueueMax    int64

	// Cluster lifecycle (facade-assembled; zero for bare engine worlds).
	Boots, Runs, FailedRuns int64
	// RetiredWorlds counts failed runs by cause classification
	// ("deadlock", "canceled", "deadline", "aborted", "error").
	RetiredWorlds map[string]int64

	// Buffer-pool activity. The pools are process-global, so these
	// totals span every world in the process, not just this Snapshot's.
	BufPool                    []PoolClassStats
	OversizeGets, OversizePuts int64

	// Spans (opt-in; empty when disabled).
	SpanCap       int
	Spans         []Span
	SpansRecorded int64
	SpanDrops     int64

	// Traffic is the traced send/recv accounting, nil unless the
	// assembler had a trace collector.
	Traffic *TrafficTotals
}

// String renders a compact multi-line summary. Line shapes are stable
// enough to grep (the CI smoke jobs match the sends/recvs lines).
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics: np=%d", s.NP)
	if s.Executor != "" {
		fmt.Fprintf(&b, " exec=%s", s.Executor)
	}
	if s.Transport != "" {
		fmt.Fprintf(&b, " transport=%s", s.Transport)
	}
	fmt.Fprintf(&b, "\n  sends: eager=%d rendezvous=%d\n", s.EagerSends, s.RdvSends)
	fmt.Fprintf(&b, "  recvs: eager=%d rendezvous=%d staged-bytes=%d\n", s.EagerRecvs, s.RdvRecvs, s.StagedBytes)
	fmt.Fprintf(&b, "  executor: parks=%d unparks=%d slot-waits=%d\n", s.Parks, s.Unparks, s.SlotWaits)
	if s.wireActive() {
		fmt.Fprintf(&b, "  wire: datagrams-sent=%d datagrams-recv=%d bytes-sent=%d bytes-recv=%d retransmits=%d ack-rtts=%d\n",
			s.WireDatagramsSent, s.WireDatagramsRecv, s.WireBytesSent, s.WireBytesRecv, s.WireRetransmits, s.WireAckRoundTrips)
		fmt.Fprintf(&b, "  wire-cc: srtt-max-us=%d rto-max-us=%d cwnd-hw=%d cwnd-lw=%d cwnd-halvings=%d fast-retx=%d acks-sent=%d acks-coalesced=%d batched-writes=%d batched-reads=%d direct-bytes=%d direct-share=%.2f\n",
			s.WireSRTTMaxMicros, s.WireRTOMaxMicros, s.WireCwndHighWater, s.WireCwndLowWater,
			s.WireCwndHalvings, s.WireFastRetransmits, s.WireAcksSent, s.WireAcksCoalesced, s.WireBatchedWrites, s.WireBatchedReads,
			s.WireDirectBytes, float64(s.WireDirectBytes)/float64(max(s.WireBytesRecv, 1)))
	}
	fmt.Fprintf(&b, "  queues: posted-max=%d arrival-max=%d tag-stream-hw=%d\n",
		s.PostedQueueMax, s.ArrivalQueueMax, s.TagStreamHighWater)
	fmt.Fprintf(&b, "  lifecycle: boots=%d runs=%d failed=%d aborted=%d", s.Boots, s.Runs, s.FailedRuns, s.AbortedRuns)
	for _, cause := range sortedCauses(s.RetiredWorlds) {
		fmt.Fprintf(&b, " retired[%s]=%d", cause, s.RetiredWorlds[cause])
	}
	b.WriteString("\n")
	for _, c := range s.BufPool {
		fmt.Fprintf(&b, "  bufpool[%s]: gets=%d puts=%d misses=%d\n", sizeLabel(c.Size), c.Gets, c.Puts, c.Misses)
	}
	if s.OversizeGets > 0 || s.OversizePuts > 0 {
		fmt.Fprintf(&b, "  bufpool[oversize]: gets=%d puts=%d\n", s.OversizeGets, s.OversizePuts)
	}
	if s.SpanCap > 0 {
		fmt.Fprintf(&b, "  spans: recorded=%d retained=%d dropped=%d cap=%d/rank\n",
			s.SpansRecorded, len(s.Spans), s.SpanDrops, s.SpanCap)
	}
	if s.Traffic != nil {
		t := s.Traffic
		fmt.Fprintf(&b, "  traffic: msgs=%d bytes=%d intra=%d/%d inter=%d/%d recvs=%d\n",
			t.Messages, t.Bytes, t.IntraMessages, t.IntraBytes, t.InterMessages, t.InterBytes, t.Recvs)
	}
	return strings.TrimRight(b.String(), "\n")
}

// wireActive reports whether the wire-transport summary line should
// render: a non-chan transport label or any wire counter activity. A
// chan-only snapshot stays byte-identical to what it printed before the
// transport seam existed.
func (s Snapshot) wireActive() bool {
	if s.Transport != "" && s.Transport != "chan" {
		return true
	}
	return s.WireDatagramsSent+s.WireDatagramsRecv+s.WireRetransmits+s.WireAckRoundTrips > 0
}

func sortedCauses(m map[string]int64) []string {
	if len(m) == 0 {
		return nil
	}
	causes := make([]string, 0, len(m))
	for c := range m {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	return causes
}

// sizeLabel renders a power-of-two byte count the way humans and
// Prometheus labels want it ("64B", "8KiB", "4MiB").
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// promWriter accumulates the first write error so the metric emitters
// stay linear instead of error-checking every line.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteProm writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). It has no HTTP dependency: callers decide
// whether the bytes go to a scrape handler, a file, or a test.
func (s Snapshot) WriteProm(w io.Writer) error {
	p := &promWriter{w: w}

	p.header("bcast_sends_total", "Messages sent, by engine protocol.", "counter")
	p.printf("bcast_sends_total{protocol=\"eager\"} %d\n", s.EagerSends)
	p.printf("bcast_sends_total{protocol=\"rendezvous\"} %d\n", s.RdvSends)

	p.header("bcast_recvs_total", "Messages delivered, by engine protocol.", "counter")
	p.printf("bcast_recvs_total{protocol=\"eager\"} %d\n", s.EagerRecvs)
	p.printf("bcast_recvs_total{protocol=\"rendezvous\"} %d\n", s.RdvRecvs)

	p.header("bcast_staged_bytes_total", "Payload bytes copied through pooled eager staging.", "counter")
	p.printf("bcast_staged_bytes_total %d\n", s.StagedBytes)

	p.header("bcast_executor_parks_total", "Rank park transitions at engine blocking points.", "counter")
	p.printf("bcast_executor_parks_total %d\n", s.Parks)
	p.header("bcast_executor_unparks_total", "Rank unpark transitions after blocking-point wakeups.", "counter")
	p.printf("bcast_executor_unparks_total %d\n", s.Unparks)
	p.header("bcast_executor_slot_waits_total", "Pooled-executor unparks that waited for a free slot.", "counter")
	p.printf("bcast_executor_slot_waits_total %d\n", s.SlotWaits)

	if s.Transport != "" {
		p.header("bcast_transport_info", "Point-to-point transport substrate, as a label.", "gauge")
		p.printf("bcast_transport_info{transport=%q} 1\n", s.Transport)
	}
	p.header("bcast_wire_datagrams_total", "Transport datagrams on the wire, by direction.", "counter")
	p.printf("bcast_wire_datagrams_total{direction=\"sent\"} %d\n", s.WireDatagramsSent)
	p.printf("bcast_wire_datagrams_total{direction=\"recv\"} %d\n", s.WireDatagramsRecv)
	p.header("bcast_wire_bytes_total", "Transport bytes on the wire (headers included), by direction.", "counter")
	p.printf("bcast_wire_bytes_total{direction=\"sent\"} %d\n", s.WireBytesSent)
	p.printf("bcast_wire_bytes_total{direction=\"recv\"} %d\n", s.WireBytesRecv)
	p.header("bcast_wire_retransmits_total", "Data datagrams written again, after a timeout or on selective-ACK evidence of loss.", "counter")
	p.printf("bcast_wire_retransmits_total %d\n", s.WireRetransmits)
	p.header("bcast_wire_fast_retransmits_total", "Retransmits triggered by selective ACKs (three later datagrams held) ahead of any timeout.", "counter")
	p.printf("bcast_wire_fast_retransmits_total %d\n", s.WireFastRetransmits)
	p.header("bcast_wire_ack_round_trips_total", "ACKs received that retired at least one pending datagram.", "counter")
	p.printf("bcast_wire_ack_round_trips_total %d\n", s.WireAckRoundTrips)
	p.header("bcast_wire_acks_total", "ACK datagrams, split into sent and coalesced-away (deferred by delayed acking).", "counter")
	p.printf("bcast_wire_acks_total{result=\"sent\"} %d\n", s.WireAcksSent)
	p.printf("bcast_wire_acks_total{result=\"coalesced\"} %d\n", s.WireAcksCoalesced)
	p.header("bcast_wire_batched_syscalls_total", "Batched datagram syscalls (sendmmsg/recvmmsg), by direction.", "counter")
	p.printf("bcast_wire_batched_syscalls_total{direction=\"write\"} %d\n", s.WireBatchedWrites)
	p.printf("bcast_wire_batched_syscalls_total{direction=\"read\"} %d\n", s.WireBatchedReads)
	p.header("bcast_wire_direct_bytes_total", "Received payload bytes the kernel wrote straight into a posted receive (no user-space copy).", "counter")
	p.printf("bcast_wire_direct_bytes_total %d\n", s.WireDirectBytes)
	p.header("bcast_wire_cwnd_halvings_total", "Congestion-window halvings (one per loss event, detected by timeout or by selective ACKs).", "counter")
	p.printf("bcast_wire_cwnd_halvings_total %d\n", s.WireCwndHalvings)
	p.header("bcast_wire_cwnd_packets", "Congestion-window water marks in packets, over every flow.", "gauge")
	p.printf("bcast_wire_cwnd_packets{bound=\"high\"} %d\n", s.WireCwndHighWater)
	p.printf("bcast_wire_cwnd_packets{bound=\"low\"} %d\n", s.WireCwndLowWater)
	p.header("bcast_wire_srtt_max_seconds", "Largest smoothed round-trip-time estimate any flow reached.", "gauge")
	p.printf("bcast_wire_srtt_max_seconds %g\n", float64(s.WireSRTTMaxMicros)/1e6)
	p.header("bcast_wire_rto_max_seconds", "Largest adaptive retransmit-timeout estimate any flow reached.", "gauge")
	p.printf("bcast_wire_rto_max_seconds %g\n", float64(s.WireRTOMaxMicros)/1e6)

	p.header("bcast_tag_stream_high_water", "Highest collective tag-stream id reached by any rank.", "gauge")
	p.printf("bcast_tag_stream_high_water %d\n", s.TagStreamHighWater)
	p.header("bcast_posted_queue_max", "Deepest posted-receive queue observed on any endpoint.", "gauge")
	p.printf("bcast_posted_queue_max %d\n", s.PostedQueueMax)
	p.header("bcast_arrival_queue_max", "Deepest unexpected-arrival queue observed on any endpoint.", "gauge")
	p.printf("bcast_arrival_queue_max %d\n", s.ArrivalQueueMax)

	p.header("bcast_world_boots_total", "Engine worlds booted by the cluster.", "counter")
	p.printf("bcast_world_boots_total %d\n", s.Boots)
	p.header("bcast_runs_total", "Cluster runs started.", "counter")
	p.printf("bcast_runs_total %d\n", s.Runs)
	p.header("bcast_failed_runs_total", "Cluster runs that returned an error (world retired).", "counter")
	p.printf("bcast_failed_runs_total %d\n", s.FailedRuns)
	p.header("bcast_aborted_runs_total", "Engine world aborts (error, panic, cancel, timeout, deadlock).", "counter")
	p.printf("bcast_aborted_runs_total %d\n", s.AbortedRuns)
	if len(s.RetiredWorlds) > 0 {
		p.header("bcast_retired_worlds_total", "Retired worlds by failure-cause classification.", "counter")
		for _, cause := range sortedCauses(s.RetiredWorlds) {
			p.printf("bcast_retired_worlds_total{cause=%q} %d\n", cause, s.RetiredWorlds[cause])
		}
	}

	if len(s.BufPool) > 0 {
		p.header("bcast_bufpool_gets_total", "Buffer-pool gets per size class (process-global).", "counter")
		for _, c := range s.BufPool {
			p.printf("bcast_bufpool_gets_total{class=%q} %d\n", sizeLabel(c.Size), c.Gets)
		}
		p.header("bcast_bufpool_puts_total", "Buffer-pool releases per size class (process-global).", "counter")
		for _, c := range s.BufPool {
			p.printf("bcast_bufpool_puts_total{class=%q} %d\n", sizeLabel(c.Size), c.Puts)
		}
		p.header("bcast_bufpool_misses_total", "Buffer-pool gets that allocated a fresh buffer.", "counter")
		for _, c := range s.BufPool {
			p.printf("bcast_bufpool_misses_total{class=%q} %d\n", sizeLabel(c.Size), c.Misses)
		}
	}
	p.header("bcast_bufpool_oversize_gets_total", "Requests above the largest pool class (plain allocation).", "counter")
	p.printf("bcast_bufpool_oversize_gets_total %d\n", s.OversizeGets)
	p.header("bcast_bufpool_oversize_puts_total", "Oversize buffers dropped on release.", "counter")
	p.printf("bcast_bufpool_oversize_puts_total %d\n", s.OversizePuts)

	p.header("bcast_spans_recorded_total", "Operation spans recorded across all ranks.", "counter")
	p.printf("bcast_spans_recorded_total %d\n", s.SpansRecorded)
	p.header("bcast_spans_dropped_total", "Operation spans overwritten by ring wraparound.", "counter")
	p.printf("bcast_spans_dropped_total %d\n", s.SpanDrops)

	if s.Traffic != nil {
		t := s.Traffic
		p.header("bcast_traffic_messages_total", "Traced messages sent, by placement scope.", "counter")
		p.printf("bcast_traffic_messages_total{scope=\"all\"} %d\n", t.Messages)
		p.printf("bcast_traffic_messages_total{scope=\"intra\"} %d\n", t.IntraMessages)
		p.printf("bcast_traffic_messages_total{scope=\"inter\"} %d\n", t.InterMessages)
		p.header("bcast_traffic_bytes_total", "Traced payload bytes sent, by placement scope.", "counter")
		p.printf("bcast_traffic_bytes_total{scope=\"all\"} %d\n", t.Bytes)
		p.printf("bcast_traffic_bytes_total{scope=\"intra\"} %d\n", t.IntraBytes)
		p.printf("bcast_traffic_bytes_total{scope=\"inter\"} %d\n", t.InterBytes)
		p.header("bcast_traffic_recvs_total", "Traced completed receives.", "counter")
		p.printf("bcast_traffic_recvs_total %d\n", t.Recvs)
	}
	return p.err
}
