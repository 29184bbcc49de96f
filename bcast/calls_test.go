package bcast

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/collective"
)

// TestStaleCommRefusesEveryCall keeps rank 0's Comm, and a Comm it split
// off, past their Run: every communicating method must then fail with
// ErrStaleHandle instead of running on the cluster's world. A stale
// Bcast from the root that ran would leave its messages for the next
// Run's ranks, which would then fail with unconsumed messages; a stale
// Recv would block forever.
func TestStaleCommRefusesEveryCall(t *testing.T) {
	const np = 4
	ctx := context.Background()
	cl, err := NewCluster(ctx, Procs(np), Timeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	bcastOnce := func(c Comm) error { return c.Bcast(ctx, make([]byte, 64), 0) }
	var stale, staleSub Comm
	err = cl.Run(ctx, func(c Comm) error {
		sub, _, err := c.Split(ctx, 0, c.Rank())
		if err != nil {
			return err
		}
		if err := errors.Join(bcastOnce(c), bcastOnce(sub)); err != nil {
			return err
		}
		if c.Rank() == 0 {
			stale, staleSub = c, sub
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bcastOnce(stale); !errors.Is(err, ErrStaleHandle) {
		t.Errorf("bcast on a stale Comm: got %v, want ErrStaleHandle", err)
	}
	if err := cl.Run(ctx, bcastOnce); err != nil {
		t.Fatalf("the Run after a stale Bcast: %v", err)
	}
	buf, f := make([]byte, 8), make([]float64, 2)
	for name, use := range map[string]func(Comm) error{
		"bcast":     bcastOnce,
		"barrier":   func(c Comm) error { return c.Barrier(ctx) },
		"send":      func(c Comm) error { return c.Send(ctx, buf, 1, 0) },
		"recv":      func(c Comm) error { _, err := c.Recv(ctx, buf, 1, 0); return err },
		"split":     func(c Comm) error { _, _, err := c.Split(ctx, 0, 0); return err },
		"scatter":   func(c Comm) error { return c.Scatter(ctx, make([]byte, np*8), 8, buf, 0) },
		"gather":    func(c Comm) error { return c.Gather(ctx, buf, 8, make([]byte, np*8), 0) },
		"allgather": func(c Comm) error { return c.Allgather(ctx, buf, 8, make([]byte, np*8)) },
		"allreduce": func(c Comm) error { return c.AllreduceFloat64(ctx, f, f, OpSum) },
		"reduce":    func(c Comm) error { return c.ReduceFloat64(ctx, f, f, OpSum, 0) },
		"init":      func(c Comm) error { _, err := c.BcastInit(buf, 0); return err },
	} {
		for _, c := range []Comm{stale, staleSub} {
			done := make(chan error, 1)
			go func() { done <- use(c) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrStaleHandle) {
					t.Errorf("%s on a stale Comm: got %v, want ErrStaleHandle", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s on a stale Comm blocked", name)
			}
		}
	}
	if err := cl.Run(ctx, bcastOnce); err != nil {
		t.Fatalf("the Run after the stale calls: %v", err)
	}
}

// TestPerCallTunerDecidesEveryCall gives each rank a tuner that
// alternates between two algorithms: the per-call Bcast must ask it on
// every call and run what it said (the spans name the algorithm), though
// from the third call on both schedules are cached.
func TestPerCallTunerDecidesEveryCall(t *testing.T) {
	const (
		np    = 4
		n     = 1 << 10
		calls = 6
	)
	ctx := context.Background()
	cl, err := NewCluster(ctx, Procs(np), WithSpans(2*calls), Timeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	algos := [2]string{Binomial, RingOpt}
	err = cl.Run(ctx, func(c Comm) error {
		asked := 0
		tuner := WithTuner(func(Env) Decision {
			asked++
			return Decision{Algorithm: algos[(asked-1)%2]}
		})
		buf := make([]byte, n)
		for i := range calls {
			want := bytes.Repeat([]byte{byte(i + 1)}, n)
			if c.Rank() == 0 {
				copy(buf, want)
			}
			if err := c.Bcast(ctx, buf, 0, tuner); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d call %d: payload corrupt", c.Rank(), i)
			}
		}
		if asked != calls {
			return fmt.Errorf("rank %d: the tuner decided %d of %d calls", c.Rank(), asked, calls)
		}
		if held := c.calls.Len(); held != len(algos) {
			return fmt.Errorf("rank %d: %d Plans cached, want %d", c.Rank(), held, len(algos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range np {
		var ran []string
		for _, s := range cl.Metrics().Spans {
			if s.Rank == r && s.Op == "bcast" {
				ran = append(ran, s.Algorithm)
			}
		}
		want := slices.Repeat(algos[:], calls/2)
		if !slices.Equal(ran, want) {
			t.Errorf("rank %d ran %v, the tuner said %v", r, ran, want)
		}
	}
}

// TestSplitCommsCacheApart checks where a rank's cached Plans live: each
// communicator, the one Run handed the rank and each one Split made,
// keeps its own, and the rank body's return hands all of them back.
func TestSplitCommsCacheApart(t *testing.T) {
	const np = 8
	ctx := context.Background()
	cl, err := NewCluster(ctx, Procs(np), Timeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	held := make([][]*collective.Calls, np)
	err = cl.Run(ctx, func(c Comm) error {
		sub, _, err := c.Split(ctx, c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		buf := make([]byte, 1<<10)
		for range 3 {
			if err := errors.Join(c.Bcast(ctx, buf, 0), sub.Bcast(ctx, buf, 0)); err != nil {
				return err
			}
		}
		if c.calls == sub.calls || c.calls.Len() != 1 || sub.calls.Len() != 1 {
			return fmt.Errorf("rank %d: world and split caches hold %d and %d Plans (shared: %v), want 1 each",
				c.Rank(), c.calls.Len(), sub.calls.Len(), c.calls == sub.calls)
		}
		held[c.Rank()] = []*collective.Calls{c.calls, sub.calls}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, calls := range held {
		for _, k := range calls {
			if k.Len() != 0 {
				t.Errorf("rank %d: %d Plans still cached after its body returned", r, k.Len())
			}
		}
	}
}

// TestPerCallCollectivesShareTheCache calls each of the Comm's seven
// per-call collectives twice on one shape: the first round binds one Plan
// per collective in the rank's cache, and the second binds nothing more.
func TestPerCallCollectivesShareTheCache(t *testing.T) {
	const np, chunk = 4, 16
	ctx := context.Background()
	cl, err := NewCluster(ctx, Procs(np), Timeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Run(ctx, func(c Comm) error {
		mine, all := make([]byte, chunk), make([]byte, np*chunk)
		in, out := make([]float64, 4), make([]float64, 4)
		ops := []struct {
			name string
			call func() error
		}{
			{"bcast", func() error { return c.Bcast(ctx, all, 0) }},
			{"barrier", func() error { return c.Barrier(ctx) }},
			{"scatter", func() error { return c.Scatter(ctx, all, chunk, mine, 0) }},
			{"gather", func() error { return c.Gather(ctx, mine, chunk, all, 0) }},
			{"allgather", func() error { return c.Allgather(ctx, mine, chunk, all) }},
			{"reduce", func() error { return c.ReduceFloat64(ctx, in, out, OpSum, 0) }},
			{"allreduce", func() error { return c.AllreduceFloat64(ctx, in, out, OpSum) }},
		}
		for round := range 2 {
			for i, op := range ops {
				if err := op.call(); err != nil {
					return fmt.Errorf("%s: %w", op.name, err)
				}
				want := i + 1
				if round == 1 {
					want = len(ops)
				}
				if held := c.calls.Len(); held != want {
					return fmt.Errorf("rank %d round %d: %d Plans cached after %s, want %d", c.Rank(), round, held, op.name, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
