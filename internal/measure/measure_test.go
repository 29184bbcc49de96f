package measure

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/tune"
)

// dec is the decision for a registry name and segment size.
func dec(name string, seg int) tune.Decision {
	return tune.Decision{Algorithm: name, SegSize: seg}
}

// TestEngineMeasurerSmoke measures a real broadcast at tiny scale and
// checks the timings are plausible: positive, and monotone in message
// size across a 256x size gap (wall-clock noise cannot plausibly make a
// 1 KiB broadcast slower than a 256 KiB one under the min statistic).
func TestEngineMeasurerSmoke(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 3, Stat: StatMin}
	small, err := m.Measure(dec(tune.RingOpt, 0), topology.SingleNode(4), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.Measure(dec(tune.RingOpt, 0), topology.SingleNode(4), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 || large <= 0 {
		t.Fatalf("non-positive timings: small=%v large=%v", small, large)
	}
	if large <= small {
		t.Errorf("256 KiB (%v s) not slower than 1 KiB (%v s)", large, small)
	}
}

// TestEngineMeasurerHonorsPlacement: a placed measurement must run
// (multi-node placements route through the engine's topology).
func TestEngineMeasurerHonorsPlacement(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2, Stat: StatMin}
	blocked := topology.Blocked(4, 2)
	if _, err := m.Measure(dec(tune.RingNative, 0), blocked, 1<<10); err != nil {
		t.Fatal(err)
	}

	// The placement must also gate capability-constrained algorithms:
	// an SMP broadcast is runnable here but not on a single node.
	if _, err := m.Measure(dec(tune.SMP, 0), blocked, 1<<10); err != nil {
		t.Errorf("smp on 2 nodes: %v", err)
	}
	if _, err := m.Measure(dec(tune.SMP, 0), topology.SingleNode(4), 1<<10); err == nil {
		t.Error("smp on a single node: want capability error")
	}
}

// TestEngineMeasurerSegmented runs a segmented candidate end to end with
// an awkward segment size, and with segments large enough that the
// executor posts their receives early.
func TestEngineMeasurerSegmented(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2, Stat: StatMedian}
	if _, err := m.Measure(dec(tune.RingOptSeg, 512), topology.SingleNode(5), 4096+3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Measure(dec(tune.RingOptSeg, 8<<10), topology.SingleNode(5), 5*(16<<10)+3); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMeasurerErrors(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2}
	if _, err := m.Measure(dec("no-such-algorithm", 0), topology.SingleNode(4), 64); err == nil {
		t.Error("unknown algorithm: want error")
	}
	badStat := EngineMeasurer{Warmup: 1, Reps: 2, Stat: "mean"}
	if _, err := badStat.Measure(dec(tune.RingOpt, 0), topology.SingleNode(4), 64); err == nil {
		t.Error("unknown statistic: want error, not a silent default")
	}
}

// TestSampleLogRoundTrip: measurements record raw samples, the log
// round-trips through JSON, and the recorded digest matches the value
// reported to the tuner.
func TestSampleLogRoundTrip(t *testing.T) {
	log := &SampleLog{}
	m := EngineMeasurer{Warmup: 1, Reps: 3, Stat: StatMin, Log: log}
	sec, err := m.Measure(dec(tune.RingOpt, 0), topology.Blocked(4, 2), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Records()
	if len(recs) != 1 {
		t.Fatalf("recorded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Algorithm != tune.RingOpt || r.Procs != 4 || r.Bytes != 1<<10 {
		t.Errorf("record key = %q/%d/%d", r.Algorithm, r.Procs, r.Bytes)
	}
	if r.Placement != "blocked:2" {
		t.Errorf("record placement = %q, want \"blocked:2\"", r.Placement)
	}
	if len(r.Samples) != 3 || r.Warmup != 1 || r.Reps != 3 || r.Stat != "min" {
		t.Errorf("record protocol = %+v", r)
	}
	if r.Seconds != sec || r.Summary.Min != sec {
		t.Errorf("record seconds %v / summary min %v, want both %v", r.Seconds, r.Summary.Min, sec)
	}

	path := filepath.Join(t.TempDir(), "samples.json")
	if err := log.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSampleLog(path)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Records()
	if len(got) != 1 || got[0].Algorithm != r.Algorithm || got[0].Seconds != r.Seconds ||
		len(got[0].Samples) != len(r.Samples) {
		t.Errorf("round-tripped record differs: %+v vs %+v", got[0], r)
	}
}

// TestAutoTuneOnEngine drives the real tuner loop end to end at tiny
// scale: the emitted table must validate
// and resolve, proving EngineMeasurer is a drop-in tune.Measurer.
func TestAutoTuneOnEngine(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2, Stat: StatMin}
	var cands []tune.Candidate
	for _, c := range collective.Candidates() {
		if c.Name == tune.Binomial || c.Name == tune.RingOpt {
			cands = append(cands, c)
		}
	}
	table, winners, err := tune.AutoTune(cands, m, tune.SweepConfig{
		Procs:      []int{4},
		Sizes:      []int{1 << 10, 1 << 14},
		Placements: []tune.Placement{{Kind: topology.KindBlocked, CoresPerNode: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(winners) != 2 {
		t.Fatalf("got %d winners, want 2", len(winners))
	}
	for _, w := range winners {
		if w.Seconds <= 0 {
			t.Errorf("winner at (p=%d, n=%d) has non-positive time", w.Procs, w.Bytes)
		}
		if w.Env.Placement != topology.KindBlocked {
			t.Errorf("winner env placement %q, want blocked", w.Env.Placement)
		}
	}
	e := tune.EnvOf(1<<10, 4, topology.Blocked(4, 2))
	if _, ok := table.Lookup(e); !ok {
		t.Errorf("table has no rule for the tuned environment %+v", e)
	}
}

// TestAutoTuneOnEngineMeasuresSMP: the topology-composed SMP rows are
// ordinary candidates on the engine's grids and win when they are the
// only applicable one.
func TestAutoTuneOnEngineMeasuresSMP(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2, Stat: StatMin}
	var smp tune.Candidate
	for _, c := range collective.Candidates() {
		if c.Name == tune.SMP {
			smp = c
		}
	}
	if smp.Name == "" {
		t.Fatal("smp not in Candidates")
	}
	_, winners, err := tune.AutoTune([]tune.Candidate{smp}, m, tune.SweepConfig{
		Procs:      []int{4},
		Sizes:      []int{1 << 12},
		Placements: []tune.Placement{{Kind: topology.KindBlocked, CoresPerNode: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 1 || winners[0].Decision.Algorithm != tune.SMP {
		t.Fatalf("winners = %+v, want one smp win", winners)
	}
	if winners[0].Seconds <= 0 {
		t.Errorf("non-positive smp timing %v", winners[0].Seconds)
	}
}

// TestEngineMeasurerPooledExecutor measures on the pooled substrate:
// the measurement must succeed with more ranks than workers, and the
// sample log must record which substrate produced each sample.
func TestEngineMeasurerPooledExecutor(t *testing.T) {
	log := &SampleLog{}
	m := EngineMeasurer{
		Warmup: 1, Reps: 2, Stat: StatMin,
		Executor: engine.Pooled, MaxWorkers: 2,
		Log: log,
	}
	// The pool is clamped to GOMAXPROCS, so derive the label, don't pin it.
	want := fmt.Sprintf("pooled(%d)", engine.PooledWorkers(2))
	if got := m.Describe(); !strings.Contains(got, "exec "+want) {
		t.Fatalf("Describe() = %q, want exec %s", got, want)
	}
	sec, err := m.Measure(dec(tune.RingOpt, 0), topology.SingleNode(16), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatalf("non-positive pooled timing %v", sec)
	}
	recs := log.Records()
	if len(recs) != 1 || recs[0].Exec != want {
		t.Fatalf("sample log records %+v lack pooled provenance", recs)
	}

	// The default substrate must label itself too.
	if got := (EngineMeasurer{}).Describe(); !strings.Contains(got, "exec goroutine, transport chan") {
		t.Fatalf("default Describe() = %q, want exec goroutine, transport chan", got)
	}
}

// TestEngineMeasurerRejectsBadWorkers: a negative worker bound must fail
// the measurement loudly, not fall back to a different substrate.
func TestEngineMeasurerRejectsBadWorkers(t *testing.T) {
	m := EngineMeasurer{Executor: engine.Pooled, MaxWorkers: -3}
	if _, err := m.Measure(dec(tune.RingOpt, 0), topology.SingleNode(4), 1<<10); err == nil {
		t.Fatal("negative MaxWorkers measured successfully")
	}
}
