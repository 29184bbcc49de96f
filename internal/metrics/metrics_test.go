package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCountersMergeAcrossShards checks the two merge rules: counters sum
// over ranks, max gauges take the per-rank maximum.
func TestCountersMergeAcrossShards(t *testing.T) {
	m := New(4, 0)
	for r := 0; r < 4; r++ {
		m.Add(r, EagerSends, int64(r+1)) // 1+2+3+4 = 10
		m.Add(r, StagedBytes, 100)
		m.Max(r, PostedQueueMax, int64(10*r)) // max = 30
	}
	m.Max(2, PostedQueueMax, 5) // lower than current 20: must not regress
	s := m.Snapshot()
	if s.EagerSends != 10 {
		t.Errorf("EagerSends = %d, want 10 (sum over shards)", s.EagerSends)
	}
	if s.StagedBytes != 400 {
		t.Errorf("StagedBytes = %d, want 400", s.StagedBytes)
	}
	if s.PostedQueueMax != 30 {
		t.Errorf("PostedQueueMax = %d, want 30 (max over shards)", s.PostedQueueMax)
	}
	if s.NP != 4 || s.SpanCap != 0 || len(s.Spans) != 0 {
		t.Errorf("shape: NP=%d SpanCap=%d spans=%d, want 4/0/0", s.NP, s.SpanCap, len(s.Spans))
	}
}

// TestMaxIsConcurrencySafe hammers one gauge from many goroutines; the
// CAS loop must settle on the true maximum.
func TestMaxIsConcurrencySafe(t *testing.T) {
	m := New(1, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := 0; v < 1000; v++ {
				m.Max(0, ArrivalQueueMax, int64(g*1000+v))
			}
		}(g)
	}
	wg.Wait()
	if got := m.Snapshot().ArrivalQueueMax; got != 7999 {
		t.Errorf("ArrivalQueueMax = %d, want 7999", got)
	}
}

// TestWireCwndLowWaterDecode pins the inverted low-water encoding: the
// merged maximum of CwndLowWaterBase-cwnd decodes to the smallest window
// observed, and a snapshot with no congestion-control activity reports 0.
func TestWireCwndLowWaterDecode(t *testing.T) {
	m := New(2, 0)
	if got := m.Snapshot().WireCwndLowWater; got != 0 {
		t.Errorf("untouched low water = %d, want 0", got)
	}
	m.Max(0, WireCwndLowWaterInv, CwndLowWaterBase-32)
	m.Max(0, WireCwndLowWaterInv, CwndLowWaterBase-8) // a lower window must win
	m.Max(0, WireCwndLowWaterInv, CwndLowWaterBase-64)
	if got := m.Snapshot().WireCwndLowWater; got != 8 {
		t.Errorf("low water = %d, want 8 (minimum over observations)", got)
	}
}

// TestSpanRingWraparound pins the drop-oldest contract: a full ring
// overwrites its oldest entries, counts every drop, and Spans returns
// the retained tail oldest-first.
func TestSpanRingWraparound(t *testing.T) {
	m := New(1, 4)
	ring := m.Ring(0)
	epoch := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		ring.Record("bcast", "binomial", 0, i, epoch.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
	}
	if got := ring.Recorded(); got != 10 {
		t.Errorf("Recorded = %d, want 10", got)
	}
	if got := ring.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	spans := ring.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := 6 + i; sp.Bytes != want {
			t.Errorf("span %d: Bytes = %d, want %d (oldest-first tail)", i, sp.Bytes, want)
		}
		if sp.Rank != 0 {
			t.Errorf("span %d: Rank = %d, want 0", i, sp.Rank)
		}
	}
	s := m.Snapshot()
	if s.SpansRecorded != 10 || s.SpanDrops != 6 || len(s.Spans) != 4 {
		t.Errorf("snapshot spans: recorded=%d drops=%d retained=%d, want 10/6/4",
			s.SpansRecorded, s.SpanDrops, len(s.Spans))
	}
}

// TestSpanRingNilSafe: a nil ring (spans disabled) must absorb every
// call — that is the entire disabled-path contract at emission sites.
func TestSpanRingNilSafe(t *testing.T) {
	var ring *SpanRing
	ring.Record("bcast", "", 0, 0, time.Time{}, 0)
	if ring.Recorded() != 0 || ring.Dropped() != 0 || ring.Spans() != nil {
		t.Error("nil ring must report zero activity")
	}
	if m := New(2, 0); m.Ring(1) != nil {
		t.Error("Ring must be nil when spans are disabled")
	}
}

// TestTrafficRowSent: a zero row takes sends, each charged to the total,
// to exactly one of intra and inter, and to its tag.
func TestTrafficRowSent(t *testing.T) {
	var r TrafficRow
	r.Sent(5, 100, true)
	r.Sent(5, 0, false)
	r.Sent(7, 20, false)
	want := TrafficRow{
		Total: Counts{3, 120}, Intra: Counts{1, 100}, Inter: Counts{2, 20},
		ByTag: map[int]*Counts{5: {2, 100}, 7: {1, 20}},
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("row = %+v, want %+v", r, want)
	}
}

// goldenSnapshot is a fully-populated Snapshot literal. The golden test
// builds it directly rather than running an engine: the bufpool counters
// are process-global, so a live run's numbers depend on test order.
func goldenSnapshot() Snapshot {
	epoch := time.Unix(1700000000, 0).UTC()
	return Snapshot{
		NP:                  4,
		Executor:            "pooled(4)",
		Transport:           "udp",
		EagerSends:          120,
		RdvSends:            30,
		EagerRecvs:          120,
		RdvRecvs:            30,
		StagedBytes:         1 << 20,
		Parks:               256,
		Unparks:             256,
		SlotWaits:           12,
		AbortedRuns:         1,
		WireDatagramsSent:   420,
		WireDatagramsRecv:   409,
		WireBytesSent:       3 << 20,
		WireBytesRecv:       3<<20 - 8192,
		WireRetransmits:     11,
		WireAckRoundTrips:   57,
		WireAcksSent:        60,
		WireAcksCoalesced:   349,
		WireBatchedWrites:   14,
		WireBatchedReads:    19,
		WireCwndHalvings:    2,
		WireFastRetransmits: 7,
		WireDirectBytes:     2 << 20,
		WireCwndHighWater:   256,
		WireCwndLowWater:    16,
		WireSRTTMaxMicros:   740,
		WireRTOMaxMicros:    1480,
		TagStreamHighWater:  7,
		PostedQueueMax:      3,
		ArrivalQueueMax:     9,
		Boots:               2,
		Runs:                6,
		FailedRuns:          1,
		RetiredWorlds:       map[string]int64{"deadlock": 1},
		BufPool: []PoolClassStats{
			{Size: 64, Gets: 40, Puts: 40, Misses: 4},
			{Size: 8 << 10, Gets: 30, Puts: 30, Misses: 3},
			{Size: 4 << 20, Gets: 2, Puts: 2, Misses: 2},
		},
		OversizeGets:  1,
		OversizePuts:  1,
		SpanCap:       256,
		SpansRecorded: 4,
		SpanDrops:     1,
		Spans: []Span{
			{Rank: 0, Op: "bcast", Algorithm: "binomial", Bytes: 1024, Start: epoch, Dur: 40 * time.Microsecond},
			{Rank: 1, Op: "bcast", Algorithm: "scatter-ring-allgather-opt-seg", Seg: 8192, Bytes: 1 << 20, Start: epoch.Add(time.Millisecond), Dur: 900 * time.Microsecond},
			{Rank: 0, Op: "barrier", Start: epoch.Add(2 * time.Millisecond), Dur: 15 * time.Microsecond},
		},
		Traffic: &TrafficTotals{
			Messages: 150, Bytes: 2 << 20,
			IntraMessages: 100, IntraBytes: 1 << 20,
			InterMessages: 50, InterBytes: 1 << 20,
			Recvs: 150,
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/metrics -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (re-run with -update if intentional)\ngot:\n%s", name, got)
	}
}

// TestWritePromGolden locks the Prometheus text exposition down to the
// byte: dashboards and scrape configs depend on these names and labels.
func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.prom", buf.Bytes())
}

// TestStringGolden locks the human-readable summary's line shapes — the
// CI smoke jobs grep them.
func TestStringGolden(t *testing.T) {
	checkGolden(t, "snapshot.txt", []byte(goldenSnapshot().String()+"\n"))
}

// TestChromeTraceRoundTrip writes the golden spans as a Chrome trace,
// checks the file shape (valid JSON, one thread-name record per rank),
// and reads it back through LoadChromeTrace.
func TestChromeTraceRoundTrip(t *testing.T) {
	s := goldenSnapshot()
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	metaTids, xTids := map[int]bool{}, map[int]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			if metaTids[ev.Tid] {
				t.Errorf("duplicate thread_name for tid %d", ev.Tid)
			}
			metaTids[ev.Tid] = true
		case "X":
			xTids[ev.Tid] = true
			if ev.Pid != 1 {
				t.Errorf("event %q: pid = %d, want 1", ev.Name, ev.Pid)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if len(xTids) != 2 || !xTids[0] || !xTids[1] {
		t.Errorf("span tids = %v, want exactly ranks 0 and 1", xTids)
	}
	for tid := range xTids {
		if !metaTids[tid] {
			t.Errorf("rank %d has spans but no thread_name metadata", tid)
		}
	}

	spans, err := LoadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(s.Spans) {
		t.Fatalf("round-trip: %d spans, want %d", len(spans), len(s.Spans))
	}
	for i, got := range spans {
		want := s.Spans[i]
		if got.Rank != want.Rank || got.Op != want.Op || got.Algorithm != want.Algorithm ||
			got.Seg != want.Seg || got.Bytes != want.Bytes || got.Dur != want.Dur {
			t.Errorf("span %d: %+v does not round-trip to %+v", i, got, want)
		}
	}
	// Relative timing survives even though the absolute epoch does not.
	if d := spans[1].Start.Sub(spans[0].Start); d != time.Millisecond {
		t.Errorf("span spacing = %v after round-trip, want 1ms", d)
	}
}

// TestSummarizeSpans checks the offline summary table: group rows,
// and the empty-input fast path.
func TestSummarizeSpans(t *testing.T) {
	if got := SummarizeSpans(nil); got != "no spans" {
		t.Errorf("empty summary = %q", got)
	}
	out := SummarizeSpans(goldenSnapshot().Spans)
	for _, row := range []string{"bcast/binomial", "bcast/scatter-ring-allgather-opt-seg", "barrier"} {
		if !strings.Contains(out, row) {
			t.Errorf("summary missing row %q:\n%s", row, out)
		}
	}
}

// TestNewValidates pins the constructor's contract.
func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, ...) must panic")
		}
	}()
	New(0, 4)
}
