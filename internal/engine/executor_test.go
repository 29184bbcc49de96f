package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/testutil"
)

// TestOptionsExecutorValidation pins the Options contract: negative
// MaxWorkers is rejected loudly, MaxWorkers is pooled-only, unknown
// policies are rejected, and zero MaxWorkers defaults to GOMAXPROCS.
func TestOptionsExecutorValidation(t *testing.T) {
	if _, err := NewWorld(Options{NP: 2, Executor: Pooled, MaxWorkers: -1}); err == nil {
		t.Error("negative MaxWorkers accepted")
	}
	if _, err := NewWorld(Options{NP: 2, MaxWorkers: 4}); err == nil {
		t.Error("MaxWorkers accepted with the goroutine executor")
	}
	if _, err := NewWorld(Options{NP: 2, Executor: ExecPolicy(99)}); err == nil {
		t.Error("unknown executor policy accepted")
	}

	w, err := NewWorld(Options{NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.slots != nil {
		t.Errorf("default executor has %d slots, want the goroutine substrate's none", cap(w.slots))
	}
	w, err = NewWorld(Options{NP: 2, Executor: Pooled})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cap(w.slots), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("pooled default has %d slots, want GOMAXPROCS %d", got, want)
	}
}

func TestParseExecPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ExecPolicy
	}{{"goroutine", Goroutine}, {"pooled", Pooled}} {
		got, err := ParseExecPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseExecPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseExecPolicy("threads"); err == nil {
		t.Error("unknown executor name accepted")
	}
}

func TestPooledWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := PooledWorkers(0); got != procs {
		t.Errorf("PooledWorkers(0) = %d, want GOMAXPROCS %d", got, procs)
	}
	if got := PooledWorkers(1); got != 1 {
		t.Errorf("PooledWorkers(1) = %d, want 1", got)
	}
	if got := PooledWorkers(1 << 20); got != procs {
		t.Errorf("PooledWorkers(huge) = %d, want GOMAXPROCS %d", got, procs)
	}
}

// TestPooledBoundsConcurrency is the pool's core invariant: user code of
// at most Workers ranks runs at any instant, even with np far beyond the
// pool, and ranks parked in communication hold no slot. The bound is
// structural (a slot is held exactly while user code runs), so the peak
// counter cannot exceed it regardless of scheduling.
func TestPooledBoundsConcurrency(t *testing.T) {
	const np, workers, rounds = 32, 2, 4
	w, err := NewWorld(Options{NP: np, Executor: Pooled, MaxWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var running, peak atomic.Int32
	enter := func() {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	err = w.Run(func(c mpi.Comm) error {
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			enter()
			time.Sleep(200 * time.Microsecond) // hold the slot in user code
			running.Add(-1)
			// A full ring per round forces every rank through park/unpark.
			next, prev := (c.Rank()+1)%np, (c.Rank()+np-1)%np
			if err := c.Send(buf, next, 1); err != nil {
				return err
			}
			if _, err := c.Recv(buf, prev, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrent user-code ranks = %d, want <= %d", got, workers)
	}
}

// TestPooledRendezvousCorrectness moves rendezvous-sized payloads
// through a pooled world much wider than its pool: blocked senders must
// park without wedging the pool, and every byte must land.
func TestPooledRendezvousCorrectness(t *testing.T) {
	const np = 64
	w, err := NewWorld(Options{NP: np, Executor: Pooled, MaxWorkers: 3, EagerLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4<<10)
	for i := range want {
		want[i] = byte(i * 7)
	}
	err = w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			for r := 1; r < np; r++ {
				if err := c.Send(want, r, 2); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, len(want))
		if _, err := c.Recv(buf, 0, 2); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: payload corrupted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPooledCancellationUnwinds fires a context while every rank of a
// pooled world is parked in an unmatchable receive: all ranks must
// unwind promptly with the cause attached and no worker or rank
// goroutine left behind — the same collective-cancellation guarantees
// the goroutine executor's tests assert.
func TestPooledCancellationUnwinds(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := NewWorld(Options{NP: 16, Executor: Pooled, MaxWorkers: 2, DeadlockAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = w.RunContext(ctx, func(c mpi.Comm) error {
		_, err := c.Recv(make([]byte, 8), mpi.AnySource, mpi.AnyTag) // never sent
		return err
	})
	if err == nil {
		t.Fatal("canceled pooled run returned nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("pooled cancellation took %v, want prompt unwind", elapsed)
	}
	testutil.WaitGoroutines(t, base)
}

// TestPooledDeadlockDetected: the watchdog's global-deadlock detection
// must survive the executor refactor — parked pooled ranks count as
// blocked, and a world where everyone waits forever is diagnosed, not
// hung.
func TestPooledDeadlockDetected(t *testing.T) {
	w, err := NewWorld(Options{NP: 4, Executor: Pooled, MaxWorkers: 2, DeadlockAfter: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c mpi.Comm) error {
		_, err := c.Recv(make([]byte, 1), mpi.AnySource, 9) // nobody sends
		return err
	})
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("deadlocked pooled world returned %v, want mpi.ErrDeadlock", err)
	}
}

// TestPooledPanicAborts: a panicking rank must abort a pooled world and
// report the panic, with parked ranks unwound and workers released.
func TestPooledPanicAborts(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := NewWorld(Options{NP: 8, Executor: Pooled, MaxWorkers: 2, DeadlockAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c mpi.Comm) error {
		if c.Rank() == 3 {
			panic("boom")
		}
		_, err := c.Recv(make([]byte, 1), mpi.AnySource, 4)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking pooled world returned %v, want panic report", err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestPooledCountsSlotWaits: a rank that wakes to a full pool queues for
// a slot, and the world counts that wait — the figure the benchmark
// reports per broadcast. Sixteen ranks exchanging around a ring on two
// slots, each holding its slot a moment in user code between rounds,
// wake to a full pool again and again; the same body on the goroutine
// substrate has no pool to wait for. Either way every park is matched
// by an unpark.
func TestPooledCountsSlotWaits(t *testing.T) {
	const np, rounds = 16, 8
	for _, tc := range []struct {
		opts  Options
		waits bool
	}{
		{Options{NP: np, Executor: Pooled, MaxWorkers: 2}, true},
		{Options{NP: np}, false},
	} {
		w, err := NewWorld(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c mpi.Comm) error {
			out, in := make([]byte, 8), make([]byte, 8)
			next, prev := (c.Rank()+1)%np, (c.Rank()+np-1)%np
			for i := 0; i < rounds; i++ {
				time.Sleep(100 * time.Microsecond) // hold the slot in user code
				if _, err := c.Sendrecv(out, next, i, in, prev, i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s := w.metrics.Snapshot()
		name := ExecLabel(tc.opts.Executor, tc.opts.MaxWorkers)
		if s.Parks == 0 || s.Parks != s.Unparks {
			t.Errorf("%s: %d parks, %d unparks; want equal and nonzero", name, s.Parks, s.Unparks)
		}
		if got := s.SlotWaits > 0; got != tc.waits {
			t.Errorf("%s: %d slot waits; want them counted only on a pool", name, s.SlotWaits)
		}
	}
}
