package collective

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tune"
)

// tracedDecision runs one registry broadcast under the trace collector
// on the given executor, verifies every rank's buffer against the
// expected pattern and that every sent message was received once, and
// returns the traffic stats. The two probe sets must agree: the traced
// messages and receives are the engine's own send and receive counters
// (the run has no Split, whose handshake only the engine counts).
func tracedDecision(t *testing.T, opts engine.Options, d tune.Decision, root, n int) trace.Stats {
	t.Helper()
	col := trace.NewCollector()
	opts.Metrics = metrics.New(opts.NP, 0)
	want := pattern(n)
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(0xA0 + c.Rank()) // distinct garbage per rank
		}
		if c.Rank() == root {
			copy(buf, want)
		}
		if err := RunDecision(tc, buf, root, d); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch (first diff at %d)", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("exec=%v p=%d root=%d n=%d: %v", opts.Executor, opts.NP, root, n, err)
	}
	s := col.Stats()
	if s.Recvs != s.Total.Messages {
		t.Fatalf("exec=%v p=%d root=%d n=%d: %d receives for %d messages", opts.Executor, opts.NP, root, n, s.Recvs, s.Total.Messages)
	}
	if m := engine.CollectMetrics(opts.Metrics); s.Total.Messages != m.EagerSends+m.RdvSends || s.Recvs != m.EagerRecvs+m.RdvRecvs {
		t.Fatalf("exec=%v p=%d root=%d n=%d: traced %d msgs / %d recvs, engine counted %d+%d sends / %d+%d recvs",
			opts.Executor, opts.NP, root, n, s.Total.Messages, s.Recvs, m.EagerSends, m.RdvSends, m.EagerRecvs, m.RdvRecvs)
	}
	return s
}

// TestExecutorParityGrid is the executor-parity grid: every registry
// algorithm runs over {goroutine, pooled} x {single, blocked,
// round-robin}, and for each cell the two executors must produce
// byte-identical buffers (asserted inside the run) and identical traced
// traffic — total, intra/inter split, and the per-tag breakdown — which
// on each executor equals the engine's own send and receive counters
// (see tracedDecision). The execution substrate schedules ranks; it must
// not change a single message of the communication schedule.
//
// The pooled side runs with fewer workers than ranks, so every blocking
// point of every algorithm exercises park/unpark. The last size has
// chunks and segments of hoistFloor bytes, so the executor posts and
// completes receives away from their ops there (see rankOps.manage) and
// the grid holds it to the same parity.
func TestExecutorParityGrid(t *testing.T) {
	const seg = 512 // forced onto segmented algorithms
	placements := []struct {
		name string
		topo func(p int) *topology.Map
	}{
		{"single", topology.SingleNode},
		{"blocked", func(p int) *topology.Map { return topology.Blocked(p, 4) }},
		{"round-robin", func(p int) *topology.Map { return topology.RoundRobin(p, 4) }},
	}
	procs := []int{5, 8} // non-pow2 and pow2, both above cores/node

	for _, r := range Algorithms() {
		for _, pl := range placements {
			for _, p := range procs {
				topo := pl.topo(p)
				root := p / 2
				for _, size := range []struct{ n, seg int }{{seg + 1, seg}, {10*p + 3, seg}, {p * hoistFloor, hoistFloor}} {
					n := size.n
					e := tune.EnvOf(n, p, topo)
					if !r.Caps.Match(e) {
						continue // skip only by declared capability
					}
					d := tune.Decision{Algorithm: r.Name}
					if r.Caps.Segmented {
						d.SegSize = size.seg
					}
					base := engine.Options{NP: p, Topology: topo, Timeout: 60 * time.Second}
					pooled := base
					pooled.Executor = engine.Pooled
					pooled.MaxWorkers = 2

					gStats := tracedDecision(t, base, d, root, n)
					pStats := tracedDecision(t, pooled, d, root, n)
					if !reflect.DeepEqual(gStats, pStats) {
						t.Fatalf("%s/%s/p=%d/n=%d: traffic diverges between executors:\ngoroutine: %+v\npooled:    %+v",
							r.Name, pl.name, p, n, gStats, pStats)
					}
				}
			}
		}
	}
}

// TestPooledLargeWorldOptSeg is the scale acceptance point: a np=512
// blocked-placement scatter-ring-allgather-opt-seg broadcast on the
// pooled executor must complete with correct buffers on every rank —
// the world size the goroutine-per-rank substrate was refactored to
// unblock.
func TestPooledLargeWorldOptSeg(t *testing.T) {
	if testing.Short() {
		t.Skip("np=512 world is not a -short test")
	}
	const p = 512
	n := 64 * p // every rank's ring chunk is a few cache lines
	topo := topology.Blocked(p, 32)
	d := tune.Decision{Algorithm: tune.RingOptSeg, SegSize: 4096}
	want := pattern(n)
	err := engine.RunWith(engine.Options{
		NP:       p,
		Topology: topo,
		Executor: engine.Pooled,
		Timeout:  10 * time.Minute,
	}, func(c mpi.Comm) error {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(0xA0 + c.Rank())
		}
		if c.Rank() == 0 {
			copy(buf, want)
		}
		if err := RunDecision(c, buf, 0, d); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch (first diff at %d)", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
