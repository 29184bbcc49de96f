package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
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
					if err := Scatter(c, src, chunk, mine, root); err != nil {
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
					if err := Gather(c, mine, chunk, dst, root); err != nil {
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
// ahead of their ops.
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
					run  func(c mpi.Comm) error
				}{
					{"scatter", sched.Generate("scatter", core.ScatterOps, p, root, n, 0), func(c mpi.Comm) error {
						got := make([]byte, chunk)
						if err := Scatter(c, all, chunk, got, root); err != nil {
							return err
						}
						if !bytes.Equal(got, mine(c)) {
							return fmt.Errorf("rank %d: wrong chunk", c.Rank())
						}
						return nil
					}},
					{"gather", sched.Generate("gather", gatherOps, p, root, n, 0), func(c mpi.Comm) error {
						got := make([]byte, n)
						if err := Gather(c, mine(c), chunk, got, root); err != nil {
							return err
						}
						if c.Rank() == root && !bytes.Equal(got, all) {
							return fmt.Errorf("root: mismatch at %d", firstDiff(got, all))
						}
						return nil
					}},
					{"allgather", sched.Generate("allgather", core.RingNativeOps, p, 0, n, 0), func(c mpi.Comm) error {
						got := make([]byte, n)
						if err := Allgather(c, mine(c), chunk, got); err != nil {
							return err
						}
						if !bytes.Equal(got, all) {
							return fmt.Errorf("rank %d: mismatch at %d", c.Rank(), firstDiff(got, all))
						}
						return nil
					}},
				} {
					label := fmt.Sprintf("%s/%v/p=%d/chunk=%d", tc.name, exec, p, chunk)
					col := trace.NewCollector()
					err := engine.RunWith(engine.Options{NP: p, Topology: topo, Executor: exec}, func(c mpi.Comm) error {
						return tc.run(col.WrapSlot(c.Rank(), c))
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got, want := col.Stats(), scheduleTraffic(tc.pr, topo, 1); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: traced %s\nthe schedule moves %s", label, got, want)
					}
				}
			}
		}
	}
}

func TestScatterValidation(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		if err := Scatter(c, nil, -1, nil, 0); err == nil {
			return errors.New("negative chunk must fail")
		}
		if err := Scatter(c, nil, 4, make([]byte, 2), 0); err == nil {
			return errors.New("short recv buffer must fail")
		}
		if c.Rank() == 0 {
			if err := Scatter(c, make([]byte, 4), 4, make([]byte, 4), 0); err == nil {
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
				if err := Allgather(c, mine, chunk, all); err != nil {
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
				if err := ReduceFloat64(c, in, out, OpSum, root); err != nil {
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
		if err := AllreduceFloat64(c, []float64{r}, out, OpMax); err != nil {
			return err
		}
		if out[0] != float64(p-1) {
			return fmt.Errorf("max = %v", out[0])
		}
		if err := AllreduceFloat64(c, []float64{r}, out, OpMin); err != nil {
			return err
		}
		if out[0] != 0 {
			return fmt.Errorf("min = %v", out[0])
		}
		if err := AllreduceFloat64(c, []float64{r + 1}, out, OpProd); err != nil {
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
			if err := AllreduceFloat64(c, in, out, OpSum); err != nil {
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

func TestReduceValidation(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		if err := ReduceFloat64(c, []float64{1}, nil, OpSum, 9); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("bad root: got %v", err)
		}
		if c.Rank() == 0 {
			if err := ReduceFloat64(c, []float64{1, 2}, make([]float64, 1), OpSum, 0); err == nil {
				return errors.New("short out must fail on root")
			}
		}
		if err := AllreduceFloat64(c, []float64{1, 2}, make([]float64, 1), OpSum); err == nil {
			return errors.New("short out must fail in allreduce")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
