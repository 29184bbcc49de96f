package collective

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/testutil"
	"repro/internal/topology"
	"repro/internal/tune"
)

// allocHarness drives broadcasts through one long-lived world so a
// "round" (one full broadcast across all ranks) costs only the
// collective itself — no boot, no goroutine launches. Only rank 0 talks
// to the host: it receives the round's size index from a channel and
// relays it to the other ranks with a tiny control broadcast, so every
// other rank blocks exclusively inside engine operations. That matters
// on the pooled executor, where a rank blocked on a bare channel would
// sit on an execution slot and starve ranks that still need to run.
type allocHarness struct {
	np      int
	sizes   []int
	bufs    [][][]byte // bufs[sizeIdx][rank]
	jobs    chan int   // size index; -1 shuts down
	done    chan error
	runDone chan error
	stopped bool
}

func startAllocHarness(t *testing.T, topo *topology.Map, exec engine.ExecPolicy, mx *metrics.Metrics, sizes []int, bcast func(c mpi.Comm, buf []byte) error) *allocHarness {
	t.Helper()
	np := topo.NP()
	h := &allocHarness{
		np:      np,
		sizes:   sizes,
		bufs:    make([][][]byte, len(sizes)),
		jobs:    make(chan int),
		done:    make(chan error, 1),
		runDone: make(chan error, 1),
	}
	// The buffer table is built before the world launches and never
	// written by the host again, so rank bodies read it without locks.
	for i, n := range sizes {
		bs := make([][]byte, np)
		for r := range bs {
			bs[r] = make([]byte, n)
		}
		bs[0][0], bs[0][n-1] = 0xAB, 0xCD
		h.bufs[i] = bs
	}
	w, err := engine.NewWorld(engine.Options{
		NP:       np,
		Topology: topo,
		Executor: exec,
		Metrics:  mx,
		// The world stays up for the whole measurement; keep the
		// wall-clock watchdog out of the way.
		Timeout: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		h.runDone <- w.Run(func(c mpi.Comm) error {
			r := c.Rank()
			ctl := make([]byte, 8)
			for {
				if r == 0 {
					binary.LittleEndian.PutUint64(ctl, uint64(int64(<-h.jobs)))
				}
				if err := uncached.run(c, opBcast, core.BinomialOps, tune.Decision{}, ctl, 0, len(ctl), 0, OpSum); err != nil {
					return err
				}
				idx := int(int64(binary.LittleEndian.Uint64(ctl)))
				if idx < 0 {
					return nil
				}
				err := bcast(c, h.bufs[idx][r])
				if berr := Barrier(c); err == nil {
					err = berr
				}
				if r == 0 {
					h.done <- err
				}
				if err != nil {
					return err
				}
			}
		})
	}()
	return h
}

// round runs one full broadcast of sizes[idx] bytes on every rank. It
// allocates nothing itself: two channel handoffs around engine traffic.
func (h *allocHarness) round(idx int) error {
	h.jobs <- idx
	return <-h.done
}

// stop shuts the world down and waits for every rank to return (once;
// later calls do nothing).
func (h *allocHarness) stop(t *testing.T) {
	t.Helper()
	if h.stopped {
		return
	}
	h.stopped = true
	h.jobs <- -1
	if err := <-h.runDone; err != nil {
		t.Fatal(err)
	}
}

// TestBcastOptSegSteadyStateAllocs is the allocs/op gate for per-call
// broadcasts through the executor: on a long-lived world the
// per-broadcast allocation count must be (a) small — the rank's ops are
// emitted into pooled scratch, and the engine's pooled staging,
// envelopes, posted receives and requests leave only incidental
// allocations — and (b) independent of the message size. (b) is the
// sharp edge: a 1 MiB opt-seg broadcast with 8 KiB segments moves 128x
// the segments (and emits 128x the ops) of a 4 KiB one, so any leaked
// per-op, per-segment or per-byte allocation shows up as a slope across
// the sizes. The paper's segmented ring is the headline cell; the other
// cells cover each shape of schedule the executor runs per call (tree,
// scatter + exchange rounds, scatter + unsegmented ring, pipeline, and
// the SMP rows' three phases over sixteen ranks on four nodes). At the
// two larger sizes the rings' chunks reach hoistFloor, so the executor
// posts their receives ahead of their ops into the pooled Plan's
// requests, which the engine re-arms call after call.
//
// Every cell also counts what the engine sent: a round is the row's
// schedule plus the harness's control broadcast and barrier, message for
// message. A broadcast that builds communicators, negotiates or retries
// behind the schedule's back — the Split-based SMP broadcast sent
// 4(P-1) control messages per call and grew a tag-stream table with
// every call — fails both assertions.
func TestBcastOptSegSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const (
		segSize = 8 << 10
		// perRoundBudget bounds the allocations of one full broadcast
		// round (all np ranks, control traffic and barrier included) at
		// any size. The measured steady state is ~0-2; the budget leaves
		// headroom for runtime incidentals (a pool refill after a
		// background GC, a channel wakeup's sudog).
		perRoundBudget = 64.0
		// flatSlack bounds how much the largest size may exceed the
		// smallest: flatness, not just boundedness.
		flatSlack = 32.0
	)
	sizes := []int{4 << 10, 64 << 10, 1 << 20}
	oneNode, fourNodes := topology.SingleNode(8), topology.Blocked(16, 4)
	cells := []struct {
		Options
		topo *topology.Map
	}{
		{Options{Algorithm: tune.RingOptSeg, SegSize: segSize}, oneNode},
		{Options{Algorithm: tune.Binomial}, oneNode},
		{Options{Algorithm: tune.ScatterRdb}, oneNode},
		{Options{Algorithm: tune.RingOpt}, oneNode},
		{Options{Algorithm: tune.Chain, SegSize: segSize}, oneNode},
		{Options{Algorithm: tune.SMP}, fourNodes},
		{Options{Algorithm: tune.SMPOpt}, fourNodes},
	}

	// The grid's last axis proves the observability layer free: the
	// "spans" cells run with span recording on and must meet the exact
	// same budgets. Counters are always on in both.
	for _, cell := range cells {
		o, np := cell.Options, cell.topo.NP()
		for _, exec := range []engine.ExecPolicy{engine.Goroutine, engine.Pooled} {
			for _, spans := range []bool{false, true} {
				name := o.Algorithm + "/" + exec.String()
				spanCap := 0
				if spans {
					name += "/spans"
					spanCap = 256
				}
				mx := metrics.New(np, spanCap)
				bcastFn := func(c mpi.Comm, buf []byte) error {
					return Broadcast(c, buf, 0, o)
				}
				t.Run(name, func(t *testing.T) {
					h := startAllocHarness(t, cell.topo, exec, mx, sizes, bcastFn)
					defer h.stop(t)

					// Warm the pools: the first broadcast at each size populates
					// the size classes the steady state reuses.
					for i := range sizes {
						if err := h.round(i); err != nil {
							t.Fatal(err)
						}
					}

					got := make([]float64, len(sizes))
					for i, n := range sizes {
						i := i
						got[i] = testing.AllocsPerRun(20, func() {
							if err := h.round(i); err != nil {
								t.Fatal(err)
							}
						})
						t.Logf("size=%-8d allocs/broadcast=%.1f", n, got[i])
					}
					for i, n := range sizes {
						if got[i] > perRoundBudget {
							t.Errorf("size %d: %.1f allocs per broadcast round, budget %.0f", n, got[i], perRoundBudget)
						}
					}
					if d := got[len(sizes)-1] - got[0]; d > flatSlack {
						t.Errorf("allocs not flat across sizes: %.1f more at %d B than at %d B (slack %.0f)",
							d, sizes[len(sizes)-1], sizes[0], flatSlack)
					}
					// Spot-check the payload actually traveled.
					for i, n := range sizes {
						for r := 1; r < np; r++ {
							if h.bufs[i][r][0] != 0xAB || h.bufs[i][r][n-1] != 0xCD {
								t.Fatalf("size %d rank %d: payload not broadcast", n, r)
							}
						}
					}
					// With every rank returned, the engine's send counters are
					// final: per size one warm-up round and AllocsPerRun's 21, each
					// the row's schedule plus the control broadcast and the
					// dissemination barrier, and one last control broadcast.
					h.stop(t)
					ctl := sched.Generate("binomial-bcast", core.BinomialOps, np, 0, 8, 0).Stats().Messages
					barrier := sched.Generate("barrier", core.DisseminationOps, np, 0, 0, 0).Stats().Messages
					want := ctl
					for _, n := range sizes {
						pr, err := Schedule(o.Decide(tune.EnvOf(n, np, cell.topo)), cell.topo, 0, n)
						if err != nil {
							t.Fatal(err)
						}
						want += 22 * (pr.Stats().Messages + ctl + barrier)
					}
					snap := mx.Snapshot()
					if sent := snap.EagerSends + snap.RdvSends; sent != int64(want) {
						t.Errorf("engine sent %d messages, the schedules and the harness's own traffic add up to %d", sent, want)
					}
					if spans && snap.SpansRecorded == 0 {
						t.Error("spans cell recorded no spans")
					}
				})
			}
		}
	}
}
