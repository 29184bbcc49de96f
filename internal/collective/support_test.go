package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestBarrierCompletes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		err := engine.Run(p, func(c mpi.Comm) error {
			for i := 0; i < 5; i++ {
				if err := Barrier(c); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Every rank increments before the barrier; after it, all must see
	// the full count (the dissemination pattern creates a happens-before
	// chain from every rank to every other).
	const p = 9
	var before atomic.Int64
	err := engine.Run(p, func(c mpi.Comm) error {
		before.Add(1)
		if err := Barrier(c); err != nil {
			return err
		}
		if got := before.Load(); got != p {
			return fmt.Errorf("rank %d saw %d increments after barrier", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 9, 16} {
		for _, root := range []int{0, p - 1} {
			for _, chunk := range []int{0, 1, 7, 256} {
				err := engine.Run(p, func(c mpi.Comm) error {
					var src []byte
					if c.Rank() == root {
						src = pattern(p * chunk)
					}
					mine := make([]byte, chunk)
					if err := uncached.Scatter(c, src, chunk, mine, root); err != nil {
						return err
					}
					want := pattern(p * chunk)[c.Rank()*chunk : (c.Rank()+1)*chunk]
					if !bytes.Equal(mine, want) {
						return fmt.Errorf("rank %d scatter mismatch", c.Rank())
					}
					// Transform and gather back.
					for i := range mine {
						mine[i] ^= 0xFF
					}
					var dst []byte
					if c.Rank() == root {
						dst = make([]byte, p*chunk)
					}
					if err := uncached.Gather(c, mine, chunk, dst, root); err != nil {
						return err
					}
					if c.Rank() == root {
						wantAll := pattern(p * chunk)
						for i := range wantAll {
							wantAll[i] ^= 0xFF
						}
						if !bytes.Equal(dst, wantAll) {
							return fmt.Errorf("gather mismatch at %d", firstDiff(dst, wantAll))
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d root=%d chunk=%d: %v", p, root, chunk, err)
				}
			}
		}
	}
}

// TestScatterGatherAllgatherRunTheirSchedules: Scatter, Gather and
// Allgather move exactly the messages of the schedule each runs — the
// binomial scatter, that tree reversed, the enclosed ring from root 0.
// On both executors, over a round-robin placement, the traced traffic
// equals the program's sends — in total, split on the map and by tag —
// every message is received once, and every rank ends with the right
// bytes; at a small chunk, and at one whose receives the executor posts
// ahead of their ops; once through a nil Calls, and twice through a
// rank-held one, whose second call runs the Plan the first bound.
func TestScatterGatherAllgatherRunTheirSchedules(t *testing.T) {
	for _, exec := range []engine.ExecPolicy{engine.Goroutine, engine.Pooled} {
		for _, p := range []int{2, 5, 8, 9, 13} {
			topo := topology.RoundRobin(p, 3)
			for _, chunk := range []int{7, hoistFloor + 5} {
				n, root := p*chunk, p/2
				all := pattern(n)
				mine := func(c mpi.Comm) []byte { return all[c.Rank()*chunk : (c.Rank()+1)*chunk] }
				for _, tc := range []struct {
					name string
					pr   *sched.Program
					run  func(c mpi.Comm, k *Calls) error
				}{
					{"scatter", sched.Generate("scatter", core.ScatterOps, p, root, n, 0), func(c mpi.Comm, k *Calls) error {
						got := make([]byte, chunk)
						if err := k.Scatter(c, all, chunk, got, root); err != nil {
							return err
						}
						if !bytes.Equal(got, mine(c)) {
							return fmt.Errorf("rank %d: wrong chunk", c.Rank())
						}
						return nil
					}},
					{"gather", sched.Generate("gather", gatherOps, p, root, n, 0), func(c mpi.Comm, k *Calls) error {
						got := make([]byte, n)
						if err := k.Gather(c, mine(c), chunk, got, root); err != nil {
							return err
						}
						if c.Rank() == root && !bytes.Equal(got, all) {
							return fmt.Errorf("root: mismatch at %d", firstDiff(got, all))
						}
						return nil
					}},
					{"allgather", sched.Generate("allgather", core.RingNativeOps, p, 0, n, 0), func(c mpi.Comm, k *Calls) error {
						got := make([]byte, n)
						if err := k.Allgather(c, mine(c), chunk, got); err != nil {
							return err
						}
						if !bytes.Equal(got, all) {
							return fmt.Errorf("rank %d: mismatch at %d", c.Rank(), firstDiff(got, all))
						}
						return nil
					}},
				} {
					for _, held := range []bool{false, true} {
						label := fmt.Sprintf("%s/%v/p=%d/chunk=%d/held=%v", tc.name, exec, p, chunk, held)
						calls := 1
						if held {
							calls = 2
						}
						col := trace.NewCollector()
						err := engine.RunWith(engine.Options{NP: p, Topology: topo, Executor: exec}, func(c mpi.Comm) error {
							k := uncached
							if held {
								k = new(Calls)
								defer k.Release()
							}
							for range calls {
								if err := tc.run(col.WrapSlot(c.Rank(), c), k); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if got, want := col.Stats(), scheduleTraffic(tc.pr, topo, calls); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: traced %s\nthe schedule moves %s", label, got, want)
						}
					}
				}
			}
		}
	}
}

func TestScatterValidation(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		if err := uncached.Scatter(c, nil, -1, nil, 0); err == nil {
			return errors.New("negative chunk must fail")
		}
		if err := uncached.Scatter(c, nil, 4, make([]byte, 2), 0); err == nil {
			return errors.New("short recv buffer must fail")
		}
		if c.Rank() == 0 {
			if err := uncached.Scatter(c, make([]byte, 4), 4, make([]byte, 4), 0); err == nil {
				return errors.New("short send buffer must fail on root")
			}
		}
		return nil
	})
	// Ranks disagree on whether the collective started; the engine's
	// leftover check may fire. Only assert the validation errors above
	// surfaced (err == nil means each rank returned nil).
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherRing(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 12} {
		for _, chunk := range []int{0, 1, 9, 128} {
			err := engine.Run(p, func(c mpi.Comm) error {
				mine := bytes.Repeat([]byte{byte(c.Rank() + 1)}, chunk)
				all := make([]byte, p*chunk)
				if err := uncached.Allgather(c, mine, chunk, all); err != nil {
					return err
				}
				for r := 0; r < p; r++ {
					for i := 0; i < chunk; i++ {
						if all[r*chunk+i] != byte(r+1) {
							return fmt.Errorf("rank %d: allgather slot %d corrupt", c.Rank(), r)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d chunk=%d: %v", p, chunk, err)
			}
		}
	}
}

func TestReduceFloat64Sum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		for _, root := range []int{0, p - 1} {
			err := engine.Run(p, func(c mpi.Comm) error {
				in := []float64{float64(c.Rank()), 1, -float64(c.Rank())}
				var out []float64
				if c.Rank() == root {
					out = make([]float64, 3)
				}
				if err := uncached.ReduceFloat64(c, in, out, OpSum, root); err != nil {
					return err
				}
				if c.Rank() == root {
					wantSum := float64(p*(p-1)) / 2
					if out[0] != wantSum || out[1] != float64(p) || out[2] != -wantSum {
						return fmt.Errorf("reduce sum = %v", out)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceFloat64MaxMinProd(t *testing.T) {
	const p = 7
	err := engine.Run(p, func(c mpi.Comm) error {
		r := float64(c.Rank())
		out := make([]float64, 1)
		if err := uncached.AllreduceFloat64(c, []float64{r}, out, OpMax); err != nil {
			return err
		}
		if out[0] != float64(p-1) {
			return fmt.Errorf("max = %v", out[0])
		}
		if err := uncached.AllreduceFloat64(c, []float64{r}, out, OpMin); err != nil {
			return err
		}
		if out[0] != 0 {
			return fmt.Errorf("min = %v", out[0])
		}
		if err := uncached.AllreduceFloat64(c, []float64{r + 1}, out, OpProd); err != nil {
			return err
		}
		want := 1.0
		for i := 1; i <= p; i++ {
			want *= float64(i)
		}
		if math.Abs(out[0]-want) > 1e-9 {
			return fmt.Errorf("prod = %v want %v", out[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceEveryRankGetsResult(t *testing.T) {
	for _, p := range []int{1, 2, 4, 9} {
		err := engine.Run(p, func(c mpi.Comm) error {
			in := []float64{1}
			out := make([]float64, 1)
			if err := uncached.AllreduceFloat64(c, in, out, OpSum); err != nil {
				return err
			}
			if out[0] != float64(p) {
				return fmt.Errorf("rank %d: allreduce sum = %v want %d", c.Rank(), out[0], p)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestAllreduceScratchCountedInItsByteClass: a reduction's scratch is
// counted in the byte class it occupies. 1000 float64s are 8000 bytes,
// so an allreduce of them at np 4 adds gets to the 8 KiB class and none
// to the 1 KiB class. The counts are process-wide, so the test reads
// them by delta and must not run beside another test.
func TestAllreduceScratchCountedInItsByteClass(t *testing.T) {
	gets := func(size int) int64 {
		classes, _, _ := bufpool.Stats()
		for _, c := range classes {
			if c.Size == size {
				return c.Gets
			}
		}
		return 0
	}
	kib, kib8 := gets(1<<10), gets(8<<10)
	err := engine.Run(4, func(c mpi.Comm) error {
		in, out := make([]float64, 1000), make([]float64, 1000)
		return uncached.AllreduceFloat64(c, in, out, OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := gets(1<<10) - kib; d != 0 {
		t.Errorf("1 KiB class: %d gets, want none", d)
	}
	if d := gets(8<<10) - kib8; d == 0 {
		t.Error("8 KiB class: no gets")
	}
}

// TestReduceUnknownOp: an operator outside OpSum..OpMin fails both
// reductions on every rank, naming the operator, before anything is sent,
// so the communicator stays usable for the next reduction.
func TestReduceUnknownOp(t *testing.T) {
	const p = 4
	err := engine.Run(p, func(c mpi.Comm) error {
		in, out := []float64{1}, make([]float64, 1)
		if err := uncached.AllreduceFloat64(c, in, out, Op(42)); err == nil || !strings.Contains(err.Error(), "Op(42)") {
			return fmt.Errorf("rank %d: allreduce with Op(42): got %v", c.Rank(), err)
		}
		if err := uncached.ReduceFloat64(c, in, out, Op(42), 0); err == nil || !strings.Contains(err.Error(), "Op(42)") {
			return fmt.Errorf("rank %d: reduce with Op(42): got %v", c.Rank(), err)
		}
		if err := uncached.AllreduceFloat64(c, in, out, OpSum); err != nil {
			return err
		}
		if out[0] != p {
			return fmt.Errorf("rank %d: allreduce sum after the rejected calls = %v want %d", c.Rank(), out[0], p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceValidation(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		if err := uncached.ReduceFloat64(c, []float64{1}, nil, OpSum, 9); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("bad root: got %v", err)
		}
		if c.Rank() == 0 {
			if err := uncached.ReduceFloat64(c, []float64{1, 2}, make([]float64, 1), OpSum, 0); err == nil {
				return errors.New("short out must fail on root")
			}
		}
		if err := uncached.AllreduceFloat64(c, []float64{1, 2}, make([]float64, 1), OpSum); err == nil {
			return errors.New("short out must fail in allreduce")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReductionsLeaveInUntouched: a reduction works in out — or, on a
// non-root reduce rank, in scratch — and never writes a rank's in: after
// every call each rank's in holds the bits it passed, whatever the
// operator and root. Where out is in (every rank of an allreduce, the
// root of a reduce) the result lands there, bit for bit the tree's fold
// order, and a non-root reduce rank's in still stays as it was.
func TestReductionsLeaveInUntouched(t *testing.T) {
	const m = 256
	input := func(rank int) []float64 {
		rng := rand.New(rand.NewPCG(uint64(rank), 7))
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Ldexp(1, rng.IntN(40)-20)
		}
		return v
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, root := range []int{0, p - 1} {
			want := foldOracle(sched.Generate("reduce", core.ReduceOps, p, root, 8*m, 0), input)
			wantAll := foldOracle(sched.Generate("reduce", core.ReduceOps, p, 0, 8*m, 0), input)
			err := engine.Run(p, func(c mpi.Comm) error {
				r := c.Rank()
				for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
					in, out := input(r), make([]float64, m)
					if err := uncached.ReduceFloat64(c, in, out, op, root); err != nil {
						return err
					}
					if err := sameBits("reduce "+op.String()+": in", r, in, input(r)); err != nil {
						return err
					}
					if err := uncached.AllreduceFloat64(c, in, out, op); err != nil {
						return err
					}
					if err := sameBits("allreduce "+op.String()+": in", r, in, input(r)); err != nil {
						return err
					}
				}
				v := input(r)
				if err := uncached.ReduceFloat64(c, v, v, OpSum, root); err != nil {
					return err
				}
				wantV := want
				if r != root {
					wantV = input(r)
				}
				if err := sameBits("reduce into in", r, v, wantV); err != nil {
					return err
				}
				v = input(r)
				if err := uncached.AllreduceFloat64(c, v, v, OpSum); err != nil {
					return err
				}
				return sameBits("allreduce into in", r, v, wantAll)
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestOpString(t *testing.T) {
	if OpSum.String() != "sum" || OpProd.String() != "prod" || OpMax.String() != "max" || OpMin.String() != "min" {
		t.Fatal("op names wrong")
	}
	if Op(42).String() != "Op(42)" {
		t.Fatal("unknown op name wrong")
	}
}

// TestSupportingCollectivesRecordOneSpan: a span is one run of a
// schedule. Each supporting collective records exactly one per call on
// every rank, with its op name and the bytes of its program buffer — an
// Allreduce no nested "reduce" — and a zero-chunk call, which runs no
// schedule, records none. It holds both for a Plan bound for the call
// (a nil Calls) and, in the second of two rounds, for the Plan a
// rank-held Calls bound in the first.
func TestSupportingCollectivesRecordOneSpan(t *testing.T) {
	const p, chunk = 5, 24
	vec := []float64{1, 2, 3}
	for _, held := range []bool{false, true} {
		err := engine.RunWith(engine.Options{NP: p, Metrics: metrics.New(p, 64)}, func(c mpi.Comm) error {
			k := uncached
			if held {
				k = new(Calls)
				defer k.Release()
			}
			all := make([]byte, p*chunk)
			out := make([]float64, len(vec))
			for round := range 2 {
				for _, tc := range []struct {
					op    string
					bytes int // -1: no span
					call  func() error
				}{
					{opBarrier, 0, func() error { return k.Barrier(c) }},
					{opScatter, p * chunk, func() error { return k.Scatter(c, all, chunk, all, 1) }},
					{opGather, p * chunk, func() error { return k.Gather(c, all, chunk, all, 2) }},
					{opAllgather, p * chunk, func() error { return k.Allgather(c, all[:chunk], chunk, all) }},
					{opReduce, 8 * len(vec), func() error { return k.ReduceFloat64(c, vec, out, OpMax, 3) }},
					{opAllreduce, 8 * len(vec), func() error { return k.AllreduceFloat64(c, vec, out, OpSum) }},
					{opScatter, -1, func() error { return k.Scatter(c, all, 0, all, 0) }},
					{opGather, -1, func() error { return k.Gather(c, all, 0, all, 0) }},
					{opAllgather, -1, func() error { return k.Allgather(c, all, 0, all) }},
				} {
					where := fmt.Sprintf("rank %d, held %v, round %d", c.Rank(), held, round)
					ring := c.SpanRing()
					before := ring.Recorded()
					if err := tc.call(); err != nil {
						return err
					}
					got := ring.Recorded() - before
					if tc.bytes < 0 {
						if got != 0 {
							return fmt.Errorf("%s: zero-chunk %s recorded %d spans", where, tc.op, got)
						}
						continue
					}
					if got != 1 {
						return fmt.Errorf("%s: %s recorded %d spans, want 1", where, tc.op, got)
					}
					spans := ring.Spans()
					if last := spans[len(spans)-1]; last.Op != tc.op || last.Bytes != tc.bytes || last.Algorithm != "" {
						return fmt.Errorf("%s: %s recorded %+v, want a %q span of %d bytes", where, tc.op, last, tc.op, tc.bytes)
					}
				}
			}
			if held && k.Len() != 6 {
				return fmt.Errorf("rank %d: %d Plans held, want one per collective that ran a schedule", c.Rank(), k.Len())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
