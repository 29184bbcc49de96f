package bcast_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"time"

	"repro/bcast"
	"repro/internal/collective"
	"repro/internal/testutil"
	"repro/internal/tune"
)

// persistentPayload writes round's deterministic broadcast payload: the
// rounds differ so a handle replaying a stale schedule (or a stale
// buffer) cannot pass by accident.
func persistentPayload(buf []byte, round int) {
	for i := range buf {
		buf[i] = byte(i*7 + round*13 + 3)
	}
}

// TestPersistentMatchesBcast holds what the facade adds to the
// collective Plan under a persistent handle (TestParityMatrix holds every
// row's kept Plan to its schedule, round after round): for every row,
// BcastInit resolves the decision Comm.Decision reports, and one
// Start/Wait round delivers the bytes and moves the traffic of one
// Comm.Bcast.
func TestPersistentMatchesBcast(t *testing.T) {
	const (
		np = 16 // two nodes of a power of two: every row applies
		n  = 8 << 10
	)
	ctx := context.Background()
	want := make([]byte, n)
	persistentPayload(want, 0)
	for _, algo := range bcast.Algorithms() {
		opts := []bcast.CallOption{bcast.WithAlgorithm(algo.Name), bcast.WithSegSize(1 << 10)}
		traffic := func(persistent bool) bcast.Traffic {
			cl, err := bcast.NewCluster(ctx, bcast.Procs(np), bcast.Placement("blocked:8"), bcast.TraceTraffic())
			if err != nil {
				t.Fatal(err)
			}
			err = cl.Run(ctx, func(c bcast.Comm) error {
				buf := bytes.Repeat([]byte{byte(0xA0 + c.Rank())}, n)
				if c.Rank() == 0 {
					copy(buf, want)
				}
				if persistent {
					h, err := c.BcastInit(buf, 0, opts...)
					if err != nil {
						return err
					}
					if got, want := h.Decision(), c.Decision(n, opts...); got != want {
						return fmt.Errorf("BcastInit resolved %+v, Comm.Decision %+v", got, want)
					}
					if err := h.Start(); err != nil {
						return err
					}
					if err := h.Wait(ctx); err != nil {
						return err
					}
					if err := h.Free(); err != nil {
						return err
					}
				} else if err := c.Bcast(ctx, buf, 0, opts...); err != nil {
					return err
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("rank %d: payload corrupt", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s persistent=%v: %v", algo.Name, persistent, err)
			}
			tr, ok := cl.Traffic()
			if !ok {
				t.Fatal("no traffic trace")
			}
			return tr
		}
		if pers, call := traffic(true), traffic(false); pers != call {
			t.Errorf("%s: one Start/Wait moved %+v, one Bcast %+v", algo.Name, pers, call)
		}
	}
}

// TestPersistentStartWaitAllocs is the serving-workload allocation gate:
// inside one live world, a steady-state Start/Wait must cost at most 2
// allocations per operation per rank. The harness mirrors the collective
// package's alloc harness — only rank 0 talks to the host and relays the
// round through a persistent control broadcast, so pooled ranks block
// exclusively inside engine operations — but every measured operation
// here runs through the public Persistent handle. The cluster runs with
// span recording enabled (and counters are always on), so the budget
// also proves the observability layer's zero-allocation claim.
//
// The SMP cells hold a topology-composed schedule to the same gate and
// count the engine's sends against it: a round is the handle's schedule,
// the control broadcast and the barrier, message for message (a handle
// that rebuilt sub-communicators per round would fail both).
func TestPersistentStartWaitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const (
		n = 64 << 10
		// perOpBudget is the acceptance gate: allocations per Start/Wait
		// per rank in the steady state.
		perOpBudget = 2.0
	)
	ctx := context.Background()
	for _, cell := range []struct {
		algo      string
		np        int
		placement string
		pooled    bool
	}{
		{bcast.RingOptSeg, 8, "single", false},
		{bcast.RingOptSeg, 8, "single", true},
		{bcast.SMP, 16, "blocked:4", false},
		{bcast.SMP, 16, "blocked:4", true},
		{bcast.SMPOpt, 16, "blocked:4", false},
		{bcast.SMPOpt, 16, "blocked:4", true},
	} {
		np, pooled := cell.np, cell.pooled
		name := cell.algo + "/goroutine"
		if pooled {
			name = cell.algo + "/pooled"
		}
		t.Run(name, func(t *testing.T) {
			opts := []bcast.Option{
				bcast.Procs(np),
				bcast.Placement(cell.placement),
				bcast.Timeout(10 * time.Minute),
				// Small on purpose: the measured rounds wrap the ring many
				// times over, so the gate also covers drop-oldest overwrites.
				bcast.WithSpans(16),
			}
			if pooled {
				opts = append(opts, bcast.ExecPooled(0))
			}
			cl, err := bcast.NewCluster(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// All buffers live before the world launches; rank bodies and
			// the host never allocate per round.
			bufs := make([][]byte, np)
			for r := range bufs {
				bufs[r] = make([]byte, n)
			}
			bufs[0][0], bufs[0][n-1] = 0xAB, 0xCD
			ctls := make([][]byte, np)
			for r := range ctls {
				ctls[r] = make([]byte, 8)
			}
			jobs := make(chan int)
			done := make(chan error, 1)
			runDone := make(chan error, 1)
			go func() {
				runDone <- cl.Run(ctx, func(c bcast.Comm) error {
					r := c.Rank()
					ctl := ctls[r]
					ph, err := c.BcastInit(bufs[r], 0,
						bcast.WithAlgorithm(cell.algo), bcast.WithSegSize(8<<10))
					if err != nil {
						return err
					}
					ch, err := c.BcastInit(ctl, 0, bcast.WithAlgorithm(bcast.Binomial))
					if err != nil {
						return err
					}
					for {
						if r == 0 {
							binary.LittleEndian.PutUint64(ctl, uint64(int64(<-jobs)))
						}
						if err := ch.Run(ctx); err != nil {
							return err
						}
						if int(int64(binary.LittleEndian.Uint64(ctl))) < 0 {
							return errors.Join(ph.Free(), ch.Free())
						}
						err := ph.Run(ctx)
						if berr := c.Barrier(ctx); err == nil {
							err = berr
						}
						if r == 0 {
							done <- err
						}
						if err != nil {
							return err
						}
					}
				})
			}()
			round := func() error {
				jobs <- 0
				return <-done
			}
			// Warm: the first rounds populate the pooled staging classes.
			for i := 0; i < 3; i++ {
				if err := round(); err != nil {
					t.Fatal(err)
				}
			}
			perRound := testing.AllocsPerRun(20, func() {
				if err := round(); err != nil {
					t.Fatal(err)
				}
			})
			// One round is two Start/Wait pairs (control + payload) on each
			// of np ranks, plus a barrier; attribute everything to the 2*np
			// persistent operations — the gate holds even with the barrier
			// counted against it.
			perOp := perRound / float64(2*np)
			t.Logf("allocs: %.1f per round, %.2f per Start/Wait per rank", perRound, perOp)
			if perOp > perOpBudget {
				t.Errorf("%.2f allocs per Start/Wait per rank, budget %.1f", perOp, perOpBudget)
			}
			jobs <- -1
			if err := <-runDone; err != nil {
				t.Fatal(err)
			}
			for r := 1; r < np; r++ {
				if bufs[r][0] != 0xAB || bufs[r][n-1] != 0xCD {
					t.Fatalf("rank %d: payload not broadcast", r)
				}
			}
			// The measured rounds must have exercised the full span
			// machinery: recording, retention bounded by the ring size,
			// and drop-oldest wraparound.
			m := cl.Metrics()
			// The run is over, so the send counters are final: 3 warm-up
			// rounds and AllocsPerRun's 21, each the payload schedule plus
			// the control tree and the dissemination barrier, and the
			// control tree once more to shut down.
			pl, err := tune.ParsePlacement(cell.placement)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := pl.Map(np)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := collective.Schedule(tune.Decision{Algorithm: cell.algo, SegSize: 8 << 10}, topo, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			ctl := np - 1
			want := 24*(payload.Messages()+ctl+np*bits.Len(uint(np-1))) + ctl
			if sent := m.EagerSends + m.RdvSends; sent != int64(want) {
				t.Errorf("engine sent %d messages; the schedule says %d per payload broadcast, %d with the harness's own traffic",
					sent, payload.Messages(), want)
			}
			if m.SpansRecorded == 0 {
				t.Error("no spans recorded with WithSpans enabled")
			}
			if got, max := len(m.Spans), 16*np; got > max {
				t.Errorf("retained %d spans, ring capacity bounds it at %d", got, max)
			}
			if m.SpanDrops == 0 {
				t.Error("rings never wrapped: the gate did not cover drop-oldest overwrites")
			}
		})
	}
}

// TestPersistentStaleAfterCleanRun pins the epoch contract: a handle
// (and the Comm under it) escaping a Run that returned cleanly must
// refuse every later use with ErrStaleHandle.
func TestPersistentStaleAfterCleanRun(t *testing.T) {
	const np = 4
	ctx := context.Background()
	cl, err := bcast.NewCluster(ctx, bcast.Procs(np))
	if err != nil {
		t.Fatal(err)
	}
	var escaped *bcast.Persistent
	var escapedComm bcast.Comm
	err = cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, 1<<10)
		h, err := c.BcastInit(buf, 0)
		if err != nil {
			return err
		}
		// Prove the handle worked while its run was alive.
		if err := h.Run(ctx); err != nil {
			return err
		}
		if c.Rank() == 0 {
			escaped, escapedComm = h, c
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, use := range map[string]func() error{
		"start":  escaped.Start,
		"run":    func() error { return escaped.Run(ctx) },
		"rebind": func() error { return escaped.Rebind(make([]byte, 1<<10)) },
		"init": func() error {
			_, err := escapedComm.BcastInit(make([]byte, 1<<10), 0)
			return err
		},
	} {
		if err := use(); !errors.Is(err, bcast.ErrStaleHandle) {
			t.Errorf("%s on stale handle: got %v, want ErrStaleHandle", name, err)
		}
	}
}

// TestPersistentStaleAfterFailedRun checks the loud-failure half of the
// contract: a run that dies retires its in-flight handles, the error
// explains both the staleness and the run's own cause, and the next Run
// boots a fresh world on which new handles work.
func TestPersistentStaleAfterFailedRun(t *testing.T) {
	const np = 4
	ctx := context.Background()
	cl, err := bcast.NewCluster(ctx, bcast.Procs(np))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var orphan *bcast.Persistent
	err = cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, 1<<10)
		h, err := c.BcastInit(buf, 0)
		if err != nil {
			return err
		}
		if err := h.Run(ctx); err != nil {
			return err
		}
		if c.Rank() == 0 {
			orphan = h
		}
		if c.Rank() == 3 {
			return boom
		}
		return nil
	})
	if err == nil {
		t.Fatal("failed run: want error")
	}
	if cl.Boots() != 1 {
		t.Fatalf("Boots() = %d after first (failed) run, want 1", cl.Boots())
	}

	serr := orphan.Run(ctx)
	if !errors.Is(serr, bcast.ErrStaleHandle) {
		t.Fatalf("orphaned handle: got %v, want ErrStaleHandle", serr)
	}
	if !errors.Is(serr, boom) {
		t.Errorf("orphaned handle error must carry the run's cause, got %v", serr)
	}
	if !strings.Contains(serr.Error(), "run ended with") {
		t.Errorf("orphaned handle error not explanatory: %v", serr)
	}

	// The next Run transparently boots a fresh world; a fresh handle on
	// it must work — only the orphan stays dead.
	err = cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, 1<<10)
		if c.Rank() == 0 {
			persistentPayload(buf, 0)
		}
		h, err := c.BcastInit(buf, 0)
		if err != nil {
			return err
		}
		if err := h.Run(ctx); err != nil {
			return err
		}
		want := make([]byte, 1<<10)
		persistentPayload(want, 0)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: payload corrupt after fallback boot", c.Rank())
		}
		return h.Free()
	})
	if err != nil {
		t.Fatalf("run after failure: %v", err)
	}
	if cl.Boots() != 2 {
		t.Fatalf("Boots() = %d after failure + clean run, want 2", cl.Boots())
	}
	if err := orphan.Start(); !errors.Is(err, bcast.ErrStaleHandle) {
		t.Fatalf("orphan must stay stale across the fresh boot, got %v", err)
	}
}

// TestConcurrentPersistentBcastOnSplitComms drives two persistent
// broadcasts concurrently on one cluster: the ranks split into two
// groups and each group Start/Waits its own handle with no cross-group
// ordering. Tag streams plus per-context matching must keep the two
// payloads isolated; under -race this also exercises the handle and
// stream bookkeeping for data races.
func TestConcurrentPersistentBcastOnSplitComms(t *testing.T) {
	const (
		np     = 8
		n      = 4 << 10
		rounds = 4
	)
	ctx := context.Background()
	cl, err := bcast.NewCluster(ctx, bcast.Procs(np), bcast.Placement("blocked:4"))
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Run(ctx, func(c bcast.Comm) error {
		group := c.Rank() % 2
		sub, ok, err := c.Split(ctx, group, 0)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("rank %d: no subcommunicator", c.Rank())
		}
		buf := make([]byte, n)
		h, err := sub.BcastInit(buf, 0)
		if err != nil {
			return err
		}
		for round := 0; round < rounds; round++ {
			if sub.Rank() == 0 {
				for i := range buf {
					buf[i] = byte(i*5 + round*17 + group*101 + 7)
				}
			}
			if err := h.Run(ctx); err != nil {
				return fmt.Errorf("group %d round %d: %w", group, round, err)
			}
			for i := range buf {
				if want := byte(i*5 + round*17 + group*101 + 7); buf[i] != want {
					return fmt.Errorf("group %d round %d rank %d: byte %d = %#x, want %#x",
						group, round, sub.Rank(), i, buf[i], want)
				}
			}
		}
		return h.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitUndefined checks the facade's opt-out color: the rank passing
// Undefined gets ok=false and no communicator, while the remaining ranks
// form a working group.
func TestSplitUndefined(t *testing.T) {
	const np = 4
	ctx := context.Background()
	cl, err := bcast.NewCluster(ctx, bcast.Procs(np))
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Run(ctx, func(c bcast.Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = bcast.Undefined
		}
		sub, ok, err := c.Split(ctx, color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if ok {
				return errors.New("Undefined color must opt out")
			}
			return nil
		}
		if !ok || sub.Size() != np-1 {
			return fmt.Errorf("rank %d: group size %d, want %d", c.Rank(), sub.Size(), np-1)
		}
		buf := make([]byte, 256)
		if sub.Rank() == 0 {
			persistentPayload(buf, 1)
		}
		if err := sub.Bcast(ctx, buf, 0); err != nil {
			return err
		}
		want := make([]byte, 256)
		persistentPayload(want, 1)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: split-group broadcast corrupt", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentLifecycleErrors walks the handle state machine's
// illegal transitions. All probes are local (no communication), so every
// rank runs the identical script and the world stays in step for the
// collective Wait calls in between.
func TestPersistentLifecycleErrors(t *testing.T) {
	// np >= MinRingProcs so the cross-threshold rebind below actually
	// crosses an algorithm boundary (smaller worlds always pick binomial).
	const np = 8
	ctx := context.Background()
	cl, err := bcast.NewCluster(ctx, bcast.Procs(np))
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Run(ctx, func(c bcast.Comm) error {
		if _, err := c.BcastInit(make([]byte, 64), np); err == nil {
			return errors.New("out-of-range root must fail Init")
		}
		if _, err := c.BcastInit(make([]byte, 64), 0, bcast.WithAlgorithm("no-such-algorithm")); err == nil {
			return errors.New("unknown algorithm must fail Init")
		}

		small := make([]byte, 1<<10)
		h, err := c.BcastInit(small, 0)
		if err != nil {
			return err
		}
		if err := h.Wait(ctx); err == nil {
			return errors.New("Wait without Start must fail")
		}
		if err := h.Start(); err != nil {
			return err
		}
		if err := h.Start(); err == nil {
			return errors.New("double Start must fail")
		}
		if err := h.Free(); err == nil {
			return errors.New("Free while active must fail")
		}
		if err := h.Rebind(make([]byte, 1<<10)); err == nil {
			return errors.New("Rebind while active must fail")
		}
		if c.Rank() == 0 {
			persistentPayload(small, 0)
		}
		if err := h.Wait(ctx); err != nil {
			return err
		}

		// Same-length rebind keeps the resolved decision; the handle then
		// serves the new buffer (the double-buffering pattern).
		before := h.Decision()
		small2 := make([]byte, 1<<10)
		if err := h.Rebind(small2); err != nil {
			return err
		}
		if h.Decision() != before {
			return fmt.Errorf("same-length Rebind changed decision: %+v -> %+v", before, h.Decision())
		}
		if c.Rank() == 0 {
			persistentPayload(small2, 1)
		}
		if err := h.Run(ctx); err != nil {
			return err
		}
		want := make([]byte, 1<<10)
		persistentPayload(want, 1)
		if !bytes.Equal(small2, want) {
			return fmt.Errorf("rank %d: rebound buffer not served", c.Rank())
		}

		// Cross-threshold rebind re-resolves: a 1 KiB and a 1 MiB
		// broadcast select different algorithms under the default tuner,
		// and the handle's decision must match the per-call query's.
		big := make([]byte, 1<<20)
		if err := h.Rebind(big); err != nil {
			return err
		}
		if h.Decision().Algorithm == before.Algorithm {
			return fmt.Errorf("cross-threshold Rebind kept %q", before.Algorithm)
		}
		if want := c.Decision(len(big)); h.Decision() != want {
			return fmt.Errorf("rebound decision %+v, per-call query %+v", h.Decision(), want)
		}
		if c.Rank() == 0 {
			persistentPayload(big, 2)
		}
		if err := h.Run(ctx); err != nil {
			return err
		}
		wantBig := make([]byte, 1<<20)
		persistentPayload(wantBig, 2)
		if !bytes.Equal(big, wantBig) {
			return fmt.Errorf("rank %d: re-resolved handle corrupt", c.Rank())
		}

		if err := h.Free(); err != nil {
			return err
		}
		if err := h.Free(); err != nil {
			return fmt.Errorf("double Free must be a no-op, got %v", err)
		}
		if err := h.Start(); err == nil {
			return errors.New("Start after Free must fail")
		}
		if err := h.Rebind(small); err == nil {
			return errors.New("Rebind after Free must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
