package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/tune"
)

// TestZeroChunkEdgePaths drives every chunked collective through the
// chunk==0 fast path on several communicator sizes: the call must
// succeed, move zero messages (no zero-byte tree traffic, no
// zero-length pool scratch) and leave the receive buffers untouched.
func TestZeroChunkEdgePaths(t *testing.T) {
	ops := []struct {
		name string
		run  func(c mpi.Comm, p int) error
	}{
		{"scatter", func(c mpi.Comm, p int) error {
			return uncached.Scatter(c, make([]byte, 0), 0, []byte{}, 0)
		}},
		{"gather", func(c mpi.Comm, p int) error {
			return uncached.Gather(c, []byte{}, 0, make([]byte, 0), 0)
		}},
		{"allgather", func(c mpi.Comm, p int) error {
			return uncached.Allgather(c, []byte{}, 0, make([]byte, 0))
		}},
	}
	for _, op := range ops {
		for _, p := range []int{1, 2, 5, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", op.name, p), func(t *testing.T) {
				col := trace.NewCollector()
				err := engine.Run(p, func(c mpi.Comm) error {
					return op.run(col.WrapSlot(c.Rank(), c), p)
				})
				if err != nil {
					t.Fatal(err)
				}
				if s := col.Stats(); s.Total.Messages != 0 {
					t.Fatalf("chunk=0 moved %d messages, want 0", s.Total.Messages)
				}
			})
		}
	}
}

// TestSingleRankEdgePaths checks the p==1 degenerate of every chunked
// collective: a pure local copy, zero messages.
func TestSingleRankEdgePaths(t *testing.T) {
	const chunk = 37
	col := trace.NewCollector()
	err := engine.Run(1, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		src := pattern(chunk)
		dst := make([]byte, chunk)
		if err := uncached.Scatter(tc, src, chunk, dst, 0); err != nil {
			return fmt.Errorf("scatter: %w", err)
		}
		if !bytes.Equal(dst, src) {
			return fmt.Errorf("scatter p=1 copy mismatch")
		}
		dst = make([]byte, chunk)
		if err := uncached.Gather(tc, src, chunk, dst, 0); err != nil {
			return fmt.Errorf("gather: %w", err)
		}
		if !bytes.Equal(dst, src) {
			return fmt.Errorf("gather p=1 copy mismatch")
		}
		dst = make([]byte, chunk)
		if err := uncached.Allgather(tc, src, chunk, dst); err != nil {
			return fmt.Errorf("allgather: %w", err)
		}
		if !bytes.Equal(dst, src) {
			return fmt.Errorf("allgather p=1 copy mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := col.Stats(); s.Total.Messages != 0 {
		t.Fatalf("p=1 moved %d messages, want 0", s.Total.Messages)
	}
}

// TestConcurrentAllgatherOnSplitComms is the tag-collision regression
// test: two groups of one world each run several Allgathers genuinely
// concurrently (the groups share no ordering), all stamped from the
// same fixed phase-tag constant. Per-context matching plus per-
// operation tag streams must keep every exchange isolated; run under
// -race this also proves the stream bookkeeping itself is data-race
// free.
func TestConcurrentAllgatherOnSplitComms(t *testing.T) {
	const (
		p      = 8
		chunk  = 64
		rounds = 5
	)
	err := engine.Run(p, func(c mpi.Comm) error {
		sub, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			return err
		}
		sp, sr := sub.Size(), sub.Rank()
		send := make([]byte, chunk)
		recv := make([]byte, sp*chunk)
		for round := 0; round < rounds; round++ {
			// Rank sr contributes a (color, round, sr) marker.
			fill := byte(c.Rank()%2<<6 | round<<3 | sr)
			for i := range send {
				send[i] = fill
			}
			for i := range recv {
				recv[i] = 0xEE
			}
			if err := uncached.Allgather(sub, send, chunk, recv); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			for src := 0; src < sp; src++ {
				want := byte(c.Rank()%2<<6 | round<<3 | src)
				for i := 0; i < chunk; i++ {
					if recv[src*chunk+i] != want {
						return fmt.Errorf("round %d: rank %d got %#x from %d, want %#x",
							round, sr, recv[src*chunk+i], src, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagStreamsAdvancePerCollective pins the stream allocator's
// contract: streams advance once per collective entry identically on
// every rank, and the counters restart when a world is reused for a new
// run.
func TestTagStreamsAdvancePerCollective(t *testing.T) {
	w, err := engine.NewWorld(engine.Options{NP: 4})
	if err != nil {
		t.Fatal(err)
	}
	body := func(c mpi.Comm) error {
		buf := make([]byte, 256)
		// Two collectives consume streams 1 and 2; the probe then draws 3.
		if err := pinned(tune.Binomial, 0)(c, buf, 0); err != nil {
			return err
		}
		if err := Barrier(c); err != nil {
			return err
		}
		if got := c.NextTagStream(); got != 3 {
			return fmt.Errorf("rank %d: stream after two collectives = %d, want 3", c.Rank(), got)
		}
		return nil
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	// Reuse: the counters must restart with the world's next run, or a
	// long-lived cluster's per-ctx stream map would grow forever.
	if err := w.Run(body); err != nil {
		t.Fatalf("second run on reused world: %v", err)
	}
}
