package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/testutil"
)

// TestRunContextCancelUnblocksRecv cancels a run while every rank is
// blocked in a receive that will never be matched. All ranks must
// unwind promptly with an error wrapping both mpi.ErrAborted and
// context.Canceled, and no goroutine may be left behind.
func TestRunContextCancelUnblocksRecv(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := NewWorld(Options{NP: 4, DeadlockAfter: -1})
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
		buf := make([]byte, 8)
		_, err := c.Recv(buf, mpi.AnySource, mpi.AnyTag) // no sender exists
		return err
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RunContext returned nil after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("cancellation took %v; want prompt unblock", elapsed)
	}
	testutil.WaitGoroutines(t, base)
}

// TestRunContextDeadlineUnblocksSend forces rendezvous for every message
// and lets a send block forever (no receiver); the deadline must abort it
// with context.DeadlineExceeded.
func TestRunContextDeadlineUnblocksSend(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := NewWorld(Options{NP: 2, EagerLimit: -1, DeadlockAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var sendErr error // written by rank 0, read after RunContext returns
	err = w.RunContext(ctx, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			sendErr = c.Send(make([]byte, 1<<10), 1, 7) // rank 1 never receives
			return sendErr
		}
		<-ctx.Done() // rank 1 idles outside any communication call
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("run error does not wrap context.DeadlineExceeded: %v", err)
	}
	if !errors.Is(sendErr, mpi.ErrAborted) || !errors.Is(sendErr, context.DeadlineExceeded) {
		t.Errorf("blocked send error does not wrap mpi.ErrAborted and the cause: %v", sendErr)
	}
	testutil.WaitGoroutines(t, base)
}

// TestWithContextPerOperation binds a context to a single operation via
// the mpi.Contexter capability: a blocked Recv must return
// when that context fires, even though the run context never does.
func TestWithContextPerOperation(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := NewWorld(Options{NP: 2, DeadlockAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c mpi.Comm) error {
		if c.Rank() != 0 {
			// Rank 1 participates in nothing; it simply returns and the
			// abort from rank 0's canceled receive tears the world down
			// around the already-finished rank.
			return nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		cc := mpi.WithContext(ctx, c)
		_, err := cc.Recv(make([]byte, 4), 1, 5) // never sent
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestRunContextCleanFinish checks that a context-bound run that
// completes normally neither errors nor leaves the watcher behind.
func TestRunContextCleanFinish(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := NewWorld(Options{NP: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunContext(ctx, func(c mpi.Comm) error {
		buf := make([]byte, 64)
		if c.Rank() == 0 {
			for r := 1; r < c.Size(); r++ {
				if err := c.Send(buf, r, 3); err != nil {
					return err
				}
			}
			return nil
		}
		_, err := c.Recv(buf, 0, 3)
		return err
	})
	if err != nil {
		t.Fatalf("clean context-bound run failed: %v", err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestRunContextPreCanceled starts a run whose context is already dead;
// the first communication call must fail immediately.
func TestRunContextPreCanceled(t *testing.T) {
	w, err := NewWorld(Options{NP: 2, DeadlockAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = w.RunContext(ctx, func(c mpi.Comm) error {
		return c.Send(make([]byte, 4), (c.Rank()+1)%2, 1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}
