package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smokeSeconds is the per-run budget of the smoke tests: enough for a
// few rounds of every phase, far too little for a comparable result.
const smokeSeconds = 0.05

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, got map[string]metric, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("reported %d metrics, want %d", len(got), len(defs))
	}
	for _, def := range defs {
		m, ok := got[def.name]
		switch {
		case !ok:
			t.Errorf("%s: not reported", def.name)
		case !metricName.MatchString(def.name):
			t.Errorf("%s: not a legal metric name", def.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %v is not finite", def.name, m.Value)
		case m.Unit != def.unit:
			t.Errorf("%s: unit %q, want %q", def.name, m.Unit, def.unit)
		}
	}
}

// ringCounts pins the ledger rows that carry the paper's claim on the
// ring workloads. They are exact counts, so even a smoke run shows them:
// the tuned ring moves fewer bytes than the enclosed one, stages every hop
// when its chunks stay eager and none when they go rendezvous.
var ringCounts = map[string]struct{ staged bool }{
	"mmsg-npof2-np10": {staged: true},
	"lmsg-np8":        {staged: false},
}

// TestSmoke runs both runs of every workload on a tiny budget and checks
// that every named metric comes back finite, that no broadcast failed,
// and that the layers separate as README.md predicts.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.sessions = 2
			b := newBench(w, 7, t.TempDir())
			e2e, err := b.endToEnd(smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, endToEndMetrics)
			for _, def := range endToEndMetrics {
				if e2e[def.name].Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", def.name, e2e[def.name].Value)
				}
			}
			layers, err := b.perLayer(smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, layers, perLayerMetrics)
			if b.failed != 0 || b.attempted == 0 {
				t.Errorf("%d of %d broadcasts failed", b.failed, b.attempted)
			}
			for _, name := range []string{"trace-", "spans-"} {
				data, err := os.ReadFile(filepath.Join(b.outDir, name+w.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var trace struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
					t.Errorf("%s%s.json: not a Chrome trace with events (%v)", name, w.name, err)
				}
			}

			if want, ok := ringCounts[w.name]; ok {
				if saved := layers["collective.saved_bytes_pct"].Value; saved <= 0 {
					t.Errorf("collective.saved_bytes_pct = %v", saved)
				}
				if staged := layers["engine.staged_bytes_per_bcast"].Value; (staged > 0) != want.staged {
					t.Errorf("engine.staged_bytes_per_bcast = %v", staged)
				}
			}
			wired := w.transport != ""
			for _, def := range perLayerMetrics {
				switch def.name {
				case "transport.datagrams_per_bcast", "transport.acks_per_bcast", "transport.wire_bytes_per_payload_byte",
					"transport.srtt_max_us", "transport.datagrams_per_write_syscall":
					if v := layers[def.name].Value; (v != 0) != wired {
						t.Errorf("%s = %v on a %q workload", def.name, v, w.transport)
					}
				}
			}
			if v := layers["collective.msgs_per_bcast"].Value; v != math.Trunc(v) || v <= 0 {
				t.Errorf("collective.msgs_per_bcast = %v, want a whole positive count", v)
			}
		})
	}
}

// TestCheckerCountsFlippedByte flips one byte of one rank's buffer after
// a round and expects exactly that round to be counted as failed: a
// stamp byte is caught by the per-round stamp check, any other byte of
// the last round by the full compare.
func TestCheckerCountsFlippedByte(t *testing.T) {
	w, err := findWorkload("short-percall-np16")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		round  int
		offset int
	}{
		{"stamp byte mid-run", 5, 0},
		{"payload byte in the last round", 9, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(w, 7, t.TempDir())
			clean, err := b.session(w, nil, phases{warm: 10})
			if err != nil {
				t.Fatal(err)
			}
			if clean.failed != 0 {
				t.Fatalf("clean run counted %d failures", clean.failed)
			}
			flip := func(rank, round int, buf []byte) {
				if rank == 3 && round == tc.round {
					buf[tc.offset] ^= 0x01
				}
			}
			o, err := b.session(w, nil, phases{warm: 10, corrupt: flip})
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 1 || b.failed != 1 {
				t.Errorf("counted %d failed broadcasts (tally %d), want 1", o.failed, b.failed)
			}
		})
	}
}

// TestStopsOnTheClock checks the barrier-carried stop decision: both
// timed phases end close to their budget, on every rank, with samples.
func TestStopsOnTheClock(t *testing.T) {
	w, err := findWorkload("mmsg-npof2-np10")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, 7, t.TempDir())
	t0 := time.Now()
	o, err := b.session(w, nil, phases{warm: warmRounds, latFor: 100 * time.Millisecond, thrFor: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 200*time.Millisecond || d > 2*time.Second {
		t.Errorf("two 100 ms phases took %v", d)
	}
	if len(o.latUs) == 0 || len(o.blockMBps) == 0 || o.failed != 0 {
		t.Errorf("%d latency samples, %d blocks, %d failed", len(o.latUs), len(o.blockMBps), o.failed)
	}
	if want := warmRounds + len(o.latUs) + len(o.blockMBps)*w.block; o.attempted != want {
		t.Errorf("attempted %d broadcasts, want %d", o.attempted, want)
	}
}

// TestContractMatchesDefs keeps BENCHMARK.json and the program in step.
func TestContractMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var contract struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, c.Name, w.name)
		}
	}
	same := func(kind string, got []entry, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(defs))
		}
		for i, def := range defs {
			if c := got[i]; c.Name != def.name || c.Unit != def.unit || c.Better != def.better || c.Bound != def.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, c, def)
			}
		}
	}
	same("end-to-end", contract.EndToEnd, endToEndMetrics)
	same("per-layer", contract.PerLayer, perLayerMetrics)
}

func TestJudge(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	lower := metricDef{"t_us", "us", "lower", 0.10}
	higher := metricDef{"r_MBps", "MB/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower beyond the bound", lower, steady, []float64{115, 116, 114, 115, 117}, "REGRESSION"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 82}, "ok"},
		{"less throughput", higher, steady, []float64{85, 86, 84, 85, 87}, "REGRESSION"},
		{"more throughput", higher, steady, []float64{115, 116, 114, 115, 117}, "ok"},
		{"too noisy to tell", lower, steady, []float64{80, 100, 120, 90, 110}, "unresolved"},
	} {
		if got := judge(tc.def, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
