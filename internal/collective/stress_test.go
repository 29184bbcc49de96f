package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestRandomCollectiveSequences runs randomized but rank-agreed sequences
// of collectives (mixed algorithms, roots and sizes, with interleaved
// barriers) and checks every broadcast postcondition. Catches cross-
// collective interference (tag leakage, stale unexpected messages,
// ordering bugs).
func TestRandomCollectiveSequences(t *testing.T) {
	algos := []bcastFn{
		pinned(tune.Binomial, 0),
		pinned(tune.RingNative, 0),
		pinned(tune.RingOpt, 0),
		dispatchNative,
		dispatchOpt,
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(11)
		steps := 8
		type step struct {
			algo  int
			root  int
			n     int
			barry bool
		}
		script := make([]step, steps)
		for i := range script {
			script[i] = step{
				algo:  rng.Intn(len(algos)),
				root:  rng.Intn(p),
				n:     rng.Intn(2000),
				barry: rng.Intn(3) == 0,
			}
		}
		err := engine.RunWith(engine.Options{NP: p, Timeout: time.Minute}, func(c mpi.Comm) error {
			for i, s := range script {
				want := pattern(s.n)
				buf := make([]byte, s.n)
				if c.Rank() == s.root {
					copy(buf, want)
				}
				if err := algos[s.algo](c, buf, s.root); err != nil {
					return fmt.Errorf("step %d: %w", i, err)
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("step %d: rank %d corrupted buffer", i, c.Rank())
				}
				if s.barry {
					if err := Barrier(c); err != nil {
						return fmt.Errorf("step %d barrier: %w", i, err)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestNestedSplits exercises communicator trees: world -> halves ->
// quarters, broadcasting at each level with different data.
func TestNestedSplits(t *testing.T) {
	const p = 12
	err := engine.RunWith(engine.Options{NP: p, Timeout: time.Minute}, func(c mpi.Comm) error {
		half, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()%2, half.Rank())
		if err != nil {
			return err
		}
		// Broadcast distinct payloads at all three levels concurrently
		// (the contexts must isolate them).
		check := func(comm mpi.Comm, fill byte) error {
			buf := make([]byte, 64)
			if comm.Rank() == 0 {
				for i := range buf {
					buf[i] = fill
				}
			}
			if err := pinned(tune.RingOpt, 0)(comm, buf, 0); err != nil {
				return err
			}
			for _, b := range buf {
				if b != fill {
					return fmt.Errorf("level fill %d corrupted: got %d", fill, b)
				}
			}
			return nil
		}
		if err := check(c, 1); err != nil {
			return err
		}
		if err := check(half, 2); err != nil {
			return err
		}
		if err := check(quarter, 3); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSMPBcastOnLakiShape runs the multi-core aware broadcast on the
// second platform's node shape (8 cores) with non-power-of-two totals.
func TestSMPBcastOnLakiShape(t *testing.T) {
	for _, np := range []int{9, 17, 33} {
		topo := topology.Blocked(np, topology.LakiCoresPerNode)
		runBcast(t, "smp-laki", pinned(tune.SMPOpt, 0), engine.Options{NP: np, Topology: topo}, np-1, 3000)
	}
}

// TestBcastAllRootsExhaustive sweeps every root for a fixed size on both
// ring variants (root handling is where relative-rank bugs hide).
func TestBcastAllRootsExhaustive(t *testing.T) {
	const p = 11
	for root := 0; root < p; root++ {
		runBcast(t, "native-all-roots", pinned(tune.RingNative, 0), engine.Options{NP: p}, root, 500)
		runBcast(t, "opt-all-roots", pinned(tune.RingOpt, 0), engine.Options{NP: p}, root, 500)
	}
}

// TestConcurrentWorlds runs several independent worlds in parallel —
// engines must not share hidden state.
func TestConcurrentWorlds(t *testing.T) {
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			errs <- engine.Run(4+i, func(c mpi.Comm) error {
				buf := make([]byte, 100*(i+1))
				if c.Rank() == 0 {
					copy(buf, pattern(len(buf)))
				}
				if err := dispatchOpt(c, buf, 0); err != nil {
					return err
				}
				if !bytes.Equal(buf, pattern(len(buf))) {
					return fmt.Errorf("world %d corrupted", i)
				}
				return nil
			})
		}(i)
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
