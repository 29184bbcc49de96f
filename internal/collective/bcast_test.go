package collective

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// pattern fills deterministic, offset-dependent bytes so any misplaced
// chunk is detected.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

type bcastFn func(mpi.Comm, []byte, int) error

// with is the broadcast the options select.
func with(o Options) bcastFn {
	return func(c mpi.Comm, buf []byte, root int) error { return Broadcast(c, buf, root, o) }
}

// pinned is the broadcast that runs one registry algorithm by name.
func pinned(algo string, seg int) bcastFn { return with(Options{Algorithm: algo, SegSize: seg}) }

// The MPICH3 dispatch with the native and with the tuned ring.
var (
	dispatchNative = with(Options{})
	dispatchOpt    = with(Options{Tuner: tune.MPICH3{Tuned: true}})
)

// runBcast executes algo on a fresh world and checks every rank ends with
// the full pattern.
func runBcast(t *testing.T, name string, algo bcastFn, opts engine.Options, root, n int) {
	t.Helper()
	want := pattern(n)
	if opts.Timeout == 0 {
		opts.Timeout = 60 * time.Second
	}
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == root {
			copy(buf, want)
		}
		if err := algo(c, buf, root); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch (first diff at %d)", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s p=%d root=%d n=%d: %v", name, opts.NP, root, n, err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// algorithms lists the broadcasts that run on any placement, with their
// constraints (the SMP rows need several nodes: see
// TestBcastOnBlockedTopology and the registry-wide grids).
var algorithms = []struct {
	name     string
	fn       bcastFn
	pow2Only bool
}{
	{"binomial", pinned(tune.Binomial, 0), false},
	{"scatter-ring-native", pinned(tune.RingNative, 0), false},
	{"scatter-ring-opt", pinned(tune.RingOpt, 0), false},
	{"scatter-rdb", pinned(tune.ScatterRdb, 0), true},
	{"dispatch-native", dispatchNative, false},
	{"dispatch-opt", dispatchOpt, false},
}

// protocolAlgorithms are the broadcasts the eager/rendezvous protocol
// tests run: the tree, both rings, and the segmented tuned ring with two
// segments per chunk.
var protocolAlgorithms = append(algorithms[:3:3], struct {
	name     string
	fn       bcastFn
	pow2Only bool
}{"scatter-ring-opt-seg", pinned(tune.RingOptSeg, 40), false})

func TestBcastCorrectnessGrid(t *testing.T) {
	for _, alg := range algorithms {
		for _, p := range []int{1, 2, 3, 4, 5, 8, 9, 10, 16, 17} {
			if alg.pow2Only && !core.IsPow2(p) {
				continue
			}
			for _, root := range []int{0, p / 2, p - 1} {
				if root < 0 {
					continue
				}
				for _, n := range []int{0, 1, p - 1, p, 10*p + 3, 1 << 12} {
					if n < 0 {
						continue
					}
					runBcast(t, alg.name, alg.fn, engine.Options{NP: p}, root, n)
				}
			}
		}
	}
}

func TestBcastRendezvousOnly(t *testing.T) {
	// All transports rendezvous: exercises blocked senders inside the
	// ring. Smaller grid, both ring variants and the overlap mode.
	for _, alg := range protocolAlgorithms {
		for _, p := range []int{2, 5, 8, 10} {
			opts := engine.Options{NP: p, EagerLimit: -1}
			runBcast(t, alg.name+"/rdv", alg.fn, opts, 0, 64*p+3)
		}
	}
}

func TestBcastTinyEagerLimit(t *testing.T) {
	// Eager limit of 16 bytes mixes the protocols within one broadcast
	// (short tail chunks eager, full chunks rendezvous).
	for _, alg := range protocolAlgorithms {
		for _, p := range []int{4, 9, 12} {
			opts := engine.Options{NP: p, EagerLimit: 16}
			runBcast(t, alg.name+"/mixed", alg.fn, opts, 1%p, 24*p+5)
		}
	}
}

func TestBcastOnBlockedTopology(t *testing.T) {
	// Multi-node placement: all algorithms must stay correct regardless
	// of topology (only performance depends on it).
	topo := topology.Blocked(12, 4)
	opts := engine.Options{NP: 12, Topology: topo}
	for _, alg := range algorithms {
		if alg.pow2Only {
			continue
		}
		runBcast(t, alg.name+"/blocked", alg.fn, opts, 5, 4096)
	}
	for _, name := range []string{tune.SMP, tune.SMPOpt} {
		runBcast(t, name+"/blocked", pinned(name, 0), opts, 5, 4096)
	}
}

func TestSMPRootNotLeader(t *testing.T) {
	// Root 7 is not a node leader under Blocked(9,3) (leaders: 0,3,6).
	topo := topology.Blocked(9, 3)
	for _, name := range []string{tune.SMP, tune.SMPOpt} {
		opts := engine.Options{NP: 9, Topology: topo}
		runBcast(t, "smp-nonleader-root", pinned(name, 0), opts, 7, 1000)
	}
}

func TestBcastRejectsBadRoot(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		err := pinned(tune.Binomial, 0)(c, nil, 5)
		if !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("want ErrRank, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRdbRejectsNonPow2(t *testing.T) {
	err := engine.Run(3, func(c mpi.Comm) error {
		err := pinned(tune.ScatterRdb, 0)(c, make([]byte, 3), 0)
		if err == nil {
			return errors.New("want power-of-two error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDispatchUsesThresholdSizes runs the dispatcher at exactly the
// paper's threshold sizes end-to-end (correctness at the seams).
func TestDispatchUsesThresholdSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold sizes move hundreds of KiB per rank")
	}
	for _, n := range []int{tune.ShortMsgSize - 1, tune.ShortMsgSize, tune.LongMsgSize - 1, tune.LongMsgSize} {
		for _, p := range []int{8, 9} {
			runBcast(t, "dispatch-threshold", dispatchNative, engine.Options{NP: p}, 0, n)
			runBcast(t, "dispatch-threshold-opt", dispatchOpt, engine.Options{NP: p}, 0, n)
		}
	}
}
