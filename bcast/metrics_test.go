package bcast

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// promValue extracts the sample value of a metric line ("name 12" or
// "name{labels} 12") from Prometheus text output; -1 when absent.
func promValue(t *testing.T, prom, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(prom, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseInt(line[len(name)+1:], 10, 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in %q: %v", name, line, err)
		}
		return v
	}
	return -1
}

// TestClusterMetricsEndToEnd is the acceptance path from the issue: a
// pooled 64-rank cluster broadcasting across the eager/rendezvous
// boundary must surface nonzero protocol counters, buffer-pool
// activity and executor parks through WriteProm, and WriteChromeTrace
// must emit a valid timeline with one thread per recording rank.
func TestClusterMetricsEndToEnd(t *testing.T) {
	const np = 64
	cl, err := NewCluster(context.Background(),
		Procs(np),
		Algorithm(Binomial),
		ExecPooled(0),
		WithSpans(64),
		TraceTraffic(),
	)
	if err != nil {
		t.Fatal(err)
	}
	// 16 KiB rides the eager path, 256 KiB and 1 MiB force rendezvous;
	// binomial sends whole buffers, so both protocols must show up.
	for _, n := range []int{16 << 10, 256 << 10, 1 << 20} {
		err := cl.Run(context.Background(), func(c Comm) error {
			buf := make([]byte, n) // per rank: a shared buffer is a data race
			if c.Rank() == 0 {
				buf[0], buf[n-1] = 0x5A, 0xA5
			}
			if err := c.Bcast(context.Background(), buf, 0); err != nil {
				return err
			}
			if buf[0] != 0x5A || buf[n-1] != 0xA5 {
				return fmt.Errorf("rank %d: payload not broadcast", c.Rank())
			}
			return c.Barrier(context.Background())
		})
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
	}

	m := cl.Metrics()
	var prom bytes.Buffer
	if err := m.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, metric := range []string{
		`bcast_sends_total{protocol="eager"}`,
		`bcast_sends_total{protocol="rendezvous"}`,
		`bcast_recvs_total{protocol="eager"}`,
		`bcast_recvs_total{protocol="rendezvous"}`,
		`bcast_executor_parks_total`,
		`bcast_spans_recorded_total`,
		`bcast_traffic_recvs_total`,
	} {
		if v := promValue(t, out, metric); v <= 0 {
			t.Errorf("%s = %d, want > 0\n%s", metric, v, m)
		}
	}
	// Eager staging runs through the pooled size classes, so at least
	// one class must report gets.
	if !strings.Contains(out, "bcast_bufpool_gets_total{class=") {
		t.Errorf("no bufpool class activity in Prometheus output:\n%s", out)
	}
	if v := promValue(t, out, `bcast_runs_total`); v != 3 {
		t.Errorf("bcast_runs_total = %d, want 3", v)
	}
	if tr := m.Traffic; tr == nil || tr.Recvs != tr.Messages {
		t.Errorf("traced recvs must equal traced messages, got %+v", tr)
	}

	// The timeline must be valid JSON with one tid per recording rank —
	// every rank ran three broadcasts and three barriers, so all 64
	// must appear.
	var tl bytes.Buffer
	if err := m.WriteChromeTrace(&tl); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tl.Bytes(), &tf); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	meta, spans := map[int]int{}, map[int]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			meta[ev.Tid]++
		} else {
			spans[ev.Tid]++
		}
	}
	if len(spans) != np {
		t.Errorf("timeline covers %d ranks, want %d", len(spans), np)
	}
	for tid, n := range meta {
		if n != 1 {
			t.Errorf("rank %d: %d thread_name records, want exactly 1", tid, n)
		}
	}
	if int64(len(m.Spans)) != m.SpansRecorded {
		t.Errorf("retained %d spans but recorded %d; nothing should have dropped at cap 64", len(m.Spans), m.SpansRecorded)
	}
}

// TestClusterMetricsRetiredCauses checks the failure-cause breakdown: a
// failed run retires its world under the classified cause and counts as
// a failed run, and the next clean Run boots fresh.
func TestClusterMetricsRetiredCauses(t *testing.T) {
	cl, err := NewCluster(context.Background(), Procs(4))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := cl.Run(context.Background(), func(c Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		return c.Barrier(context.Background())
	}); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.Run(ctx, func(c Comm) error {
		return c.Barrier(context.Background())
	}); err == nil {
		t.Fatal("canceled Run must fail")
	}
	if err := cl.Run(context.Background(), func(c Comm) error {
		return c.Barrier(context.Background())
	}); err != nil {
		t.Fatal(err)
	}

	m := cl.Metrics()
	if m.Runs != 3 || m.FailedRuns != 2 {
		t.Errorf("runs=%d failed=%d, want 3/2", m.Runs, m.FailedRuns)
	}
	if m.RetiredWorlds["error"] != 1 || m.RetiredWorlds["canceled"] != 1 {
		t.Errorf("RetiredWorlds = %v, want error:1 canceled:1", m.RetiredWorlds)
	}
	if m.Boots != 3 {
		t.Errorf("Boots = %d, want 3 (two retirements force two reboots)", m.Boots)
	}
	if m.SpanCap != 0 || len(m.Spans) != 0 {
		t.Errorf("spans must stay off without WithSpans, got cap=%d retained=%d", m.SpanCap, len(m.Spans))
	}
}

// TestRetireCause pins the error classification table.
func TestRetireCause(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{fmt.Errorf("run: %w", mpi.ErrDeadlock), "deadlock"},
		{fmt.Errorf("run: %w", context.Canceled), "canceled"},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), "deadline"},
		{fmt.Errorf("run: %w", mpi.ErrAborted), "aborted"},
		{errors.New("boom"), "error"},
	} {
		if got := retireCause(tc.err); got != tc.want {
			t.Errorf("retireCause(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
