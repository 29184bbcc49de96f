package repro

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"context"

	"repro/bcast"
	"repro/internal/bench"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/tune"
)

// ---------------------------------------------------------------------
// Paper experiment regeneration. One benchmark per table/figure; each
// sub-benchmark reports the reproduced quantity as a custom metric
// (sim-MB/s for bandwidth figures, speedup for Figure 7, msgs for the
// transfer-count table). The benchmark timer measures the simulator
// itself; the metrics carry the reproduced values.
// ---------------------------------------------------------------------

// simCfg is the benchmark-grade simulated harness (short replication).
func simCfg() bench.SimMeasurer {
	return bench.SimMeasurer{Model: netsim.Hornet(), Warm: 1, Total: 3}
}

// hornet places np ranks blocked over Hornet's nodes, as the figures do.
func hornet(np int) *topology.Map { return topology.Blocked(np, topology.HornetCoresPerNode) }

// BenchmarkTableTransferCounts regenerates the Section IV in-text counts
// (P=8: 56 -> 44, P=10: 90 -> 75) plus larger process counts.
func BenchmarkTableTransferCounts(b *testing.B) {
	for _, p := range []int{8, 10, 64, 129, 256} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var nat, tun core.Traffic
			for i := 0; i < b.N; i++ {
				nat = core.RingTrafficNative(p, 64*p)
				tun = core.RingTrafficTuned(p, 64*p)
			}
			b.ReportMetric(float64(nat.Messages), "native-msgs")
			b.ReportMetric(float64(tun.Messages), "tuned-msgs")
			b.ReportMetric(float64(nat.Messages-tun.Messages), "saved-msgs")
		})
	}
}

// benchFig6 runs one Figure 6 panel: a size sweep at a fixed process
// count, native vs opt, reporting simulated bandwidth.
func benchFig6(b *testing.B, np int, sizes []int) {
	cfg, topo := simCfg(), hornet(np)
	for name, d := range map[string]tune.Decision{"MPI_Bcast_native": bench.Native, "MPI_Bcast_opt": bench.Opt} {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/size=%d", name, n), func(b *testing.B) {
				var res bench.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = bench.MeasureSimDecision(cfg, d, topo, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.MBps, "sim-MB/s")
			})
		}
	}
}

// BenchmarkFig6a: long messages, np=16 (single Hornet node; all
// transfers intra-node).
func BenchmarkFig6a(b *testing.B) { benchFig6(b, 16, bench.Fig6Sizes()) }

// BenchmarkFig6b: long messages, np=64 (three nodes; mixed levels).
func BenchmarkFig6b(b *testing.B) { benchFig6(b, 64, bench.Fig6Sizes()) }

// BenchmarkFig6c: long messages, np=256 (eleven nodes; network-heavy).
func BenchmarkFig6c(b *testing.B) { benchFig6(b, 256, bench.Fig6Sizes()) }

// BenchmarkFig7 reports the throughput speedup of opt over native for the
// paper's non-power-of-two process counts and threshold message sizes.
func BenchmarkFig7(b *testing.B) {
	cfg := simCfg()
	for _, n := range bench.Fig7Sizes() {
		for _, p := range bench.Fig7Procs() {
			b.Run(fmt.Sprintf("ms=%d/np=%d", n, p), func(b *testing.B) {
				topo := hornet(p)
				var speedup float64
				for i := 0; i < b.N; i++ {
					nat, err := bench.MeasureSimDecision(cfg, bench.Native, topo, n)
					if err != nil {
						b.Fatal(err)
					}
					opt, err := bench.MeasureSimDecision(cfg, bench.Opt, topo, n)
					if err != nil {
						b.Fatal(err)
					}
					speedup = nat.Seconds / opt.Seconds
				}
				b.ReportMetric(speedup, "speedup")
			})
		}
	}
}

// BenchmarkFig8: medium-to-long sweep at np=129.
func BenchmarkFig8(b *testing.B) { benchFig6(b, 129, bench.Fig8Sizes()) }

// ---------------------------------------------------------------------
// User-level wall-clock benchmarks on the real engine (the paper's
// Section V protocol at laptop scale). The timer measures the broadcasts
// themselves; each b.N iteration is one broadcast.
// ---------------------------------------------------------------------

// pinned is the broadcast that runs one registry algorithm by name.
func pinned(algo string) func(mpi.Comm, []byte, int) error {
	o := collective.Options{Algorithm: algo}
	return func(c mpi.Comm, buf []byte, root int) error { return collective.Broadcast(c, buf, root, o) }
}

var ringOpt = pinned(tune.RingOpt)

func benchUserLevel(b *testing.B, algo string, np, n int) {
	fn := pinned(algo)
	w, err := engine.NewWorld(engine.Options{NP: np, Timeout: 10 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ResetTimer()
	err = w.Run(func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := collective.Barrier(c); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := fn(c, buf, 0); err != nil {
				return err
			}
		}
		return collective.Barrier(c)
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkUserLevelNative(b *testing.B) {
	for _, np := range []int{8, 16} {
		for _, n := range []int{64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("np=%d/size=%d", np, n), func(b *testing.B) {
				benchUserLevel(b, tune.RingNative, np, n)
			})
		}
	}
}

func BenchmarkUserLevelOpt(b *testing.B) {
	for _, np := range []int{8, 16} {
		for _, n := range []int{64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("np=%d/size=%d", np, n), func(b *testing.B) {
				benchUserLevel(b, tune.RingOpt, np, n)
			})
		}
	}
}

func BenchmarkUserLevelBinomial(b *testing.B) {
	b.Run("np=8/size=65536", func(b *testing.B) {
		benchUserLevel(b, tune.Binomial, 8, 64<<10)
	})
}

// ---------------------------------------------------------------------
// Ablations for the design choices called out in DESIGN.md.
// ---------------------------------------------------------------------

// BenchmarkAblationNoContention decomposes the tuned ring's advantage:
// for the single-node case (np=16) it is a memory-contention effect
// (the gain collapses without contention); for multi-node runs a second
// mechanism — reduced rendezvous coupling and cross-iteration
// pipelining — survives infinite resources.
func BenchmarkAblationNoContention(b *testing.B) {
	const n = 1 << 20
	for _, np := range []int{16, 64} {
		topo := topology.Blocked(np, topology.HornetCoresPerNode)
		for _, contention := range []bool{true, false} {
			b.Run(fmt.Sprintf("np=%d/contention=%v", np, contention), func(b *testing.B) {
				m := netsim.Hornet()
				m.NoContention = !contention
				var gain float64
				for i := 0; i < b.N; i++ {
					nat, err := netsim.SteadyStateIterTime(sched.Generate("bcast-native", core.BcastNativeOps, np, 0, n, 0), topo, m, 1, 3)
					if err != nil {
						b.Fatal(err)
					}
					opt, err := netsim.SteadyStateIterTime(sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0), topo, m, 1, 3)
					if err != nil {
						b.Fatal(err)
					}
					gain = 100 * (nat - opt) / nat
				}
				b.ReportMetric(gain, "gain-%")
			})
		}
	}
}

// BenchmarkAblationPlacement compares blocked vs round-robin rank
// placement: round-robin turns most ring edges inter-node.
func BenchmarkAblationPlacement(b *testing.B) {
	const np, n = 64, 1 << 20
	placements := map[string]*topology.Map{
		"blocked":    topology.Blocked(np, topology.HornetCoresPerNode),
		"roundrobin": topology.RoundRobin(np, topology.HornetCoresPerNode),
	}
	for name, topo := range placements {
		b.Run(name, func(b *testing.B) {
			m := netsim.Hornet()
			var gain float64
			for i := 0; i < b.N; i++ {
				nat, err := netsim.SteadyStateIterTime(sched.Generate("bcast-native", core.BcastNativeOps, np, 0, n, 0), topo, m, 1, 3)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := netsim.SteadyStateIterTime(sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0), topo, m, 1, 3)
				if err != nil {
					b.Fatal(err)
				}
				gain = 100 * (nat - opt) / nat
			}
			b.ReportMetric(gain, "gain-%")
		})
	}
}

// BenchmarkAblationEagerCredits sweeps the flow-control window: tight
// credits throttle the pipelined small-message speedup (the Figure 7
// mechanism).
func BenchmarkAblationEagerCredits(b *testing.B) {
	const np, n = 33, 12288
	topo := topology.Blocked(np, topology.HornetCoresPerNode)
	for _, credits := range []int{1, 8, 48, 0} {
		b.Run(fmt.Sprintf("credits=%d", credits), func(b *testing.B) {
			m := netsim.Hornet()
			m.EagerCredits = credits
			var speedup float64
			for i := 0; i < b.N; i++ {
				nat, err := netsim.SteadyStateIterTime(sched.Generate("bcast-native", core.BcastNativeOps, np, 0, n, 0), topo, m, 2, 6)
				if err != nil {
					b.Fatal(err)
				}
				opt, err := netsim.SteadyStateIterTime(sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0), topo, m, 2, 6)
				if err != nil {
					b.Fatal(err)
				}
				speedup = nat / opt
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkAblationEagerLimit sweeps the real engine's protocol
// threshold at a fixed size: it moves the chunk transfers between the
// two-copy eager path and the single-copy rendezvous path.
func BenchmarkAblationEagerLimit(b *testing.B) {
	const np, n = 8, 512 << 10 // 64 KiB chunks
	for _, limit := range []int{-1, 16 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("eager=%d", limit), func(b *testing.B) {
			w, err := engine.NewWorld(engine.Options{NP: np, EagerLimit: limit, Timeout: 10 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n)
			b.ResetTimer()
			err = w.Run(func(c mpi.Comm) error {
				buf := make([]byte, n)
				for i := 0; i < b.N; i++ {
					if err := ringOpt(c, buf, 0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks: raw engine and simulator costs.
// ---------------------------------------------------------------------

// BenchmarkEnginePingPong measures the engine's round-trip cost per
// message size (eager and rendezvous).
func BenchmarkEnginePingPong(b *testing.B) {
	for _, n := range []int{0, 1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) {
			w, err := engine.NewWorld(engine.Options{NP: 2, Timeout: 10 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(2 * n))
			b.ResetTimer()
			err = w.Run(func(c mpi.Comm) error {
				buf := make([]byte, n)
				peer := 1 - c.Rank()
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(buf, peer, 1); err != nil {
							return err
						}
						if _, err := c.Recv(buf, peer, 2); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(buf, peer, 1); err != nil {
							return err
						}
						if err := c.Send(buf, peer, 2); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEngineBarrier measures the dissemination barrier.
func BenchmarkEngineBarrier(b *testing.B) {
	for _, np := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			w, err := engine.NewWorld(engine.Options{NP: np, Timeout: 10 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			err = w.Run(func(c mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if err := collective.Barrier(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEngineAllreduce measures a float64 sum-allreduce (binomial
// reduce to rank 0, then binomial broadcast) of 1024 elements and of
// 131072 (1 MiB). Beside the wall time per operation it reports
// cpu-ns/op, the process's user plus system CPU time over the timed
// loop (getrusage) per operation, which spreads less than the wall time
// on a shared host.
func BenchmarkEngineAllreduce(b *testing.B) {
	const np = 16
	for _, m := range []int{1024, 131072} {
		b.Run(fmt.Sprintf("np=%d/m=%d", np, m), func(b *testing.B) {
			w, err := engine.NewWorld(engine.Options{NP: np, Timeout: 10 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			cpu0 := cpuTime(b)
			err = w.Run(func(c mpi.Comm) error {
				var calls *collective.Calls // nil: each call binds its own Plan
				in, out := make([]float64, m), make([]float64, m)
				for i := 0; i < b.N; i++ {
					if err := calls.AllreduceFloat64(c, in, out, collective.OpSum); err != nil {
						return err
					}
				}
				return nil
			})
			cpu := cpuTime(b) - cpu0
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
		})
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkNetsimThroughput measures the simulator's own speed: simulated
// schedule operations processed per second at np=256.
func BenchmarkNetsimThroughput(b *testing.B) {
	pr := sched.Generate("bcast-native", core.BcastNativeOps, 256, 0, 1<<20, 0)
	topo := topology.Blocked(256, topology.HornetCoresPerNode)
	m := netsim.Hornet()
	ops := 0
	for r := 0; r < pr.P; r++ {
		ops += len(pr.OpsOf(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Simulate(pr, topo, m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ops), "sched-ops")
}

// BenchmarkScheduleGeneration measures the schedule generators.
func BenchmarkScheduleGeneration(b *testing.B) {
	for _, p := range []int{16, 129, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var pr *sched.Program
			for i := 0; i < b.N; i++ {
				pr = sched.Generate("bcast-opt", core.BcastOptOps, p, 0, 1<<20, 0)
			}
			_ = pr
		})
	}
}

// ---------------------------------------------------------------------
// Extension benchmarks (beyond the paper).
// ---------------------------------------------------------------------

// BenchmarkExtensionNodeAwareRing quantifies the node-aware ring-order
// extension on a scattered (round-robin) placement: the reordered ring
// crosses node boundaries once per node instead of on nearly every edge.
func BenchmarkExtensionNodeAwareRing(b *testing.B) {
	const np, n = 48, 1 << 20
	topo := topology.RoundRobin(np, topology.HornetCoresPerNode)
	m := netsim.Hornet()
	cases := map[string]func() *sched.Program{
		"plain-opt": func() *sched.Program { return sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0) },
		"nodeaware-opt": func() *sched.Program {
			return sched.Generate("bcast-opt-nodeaware", core.NodeAwareOps(topo, core.BcastOptOps), topo.NP(), 0, n, 0)
		},
	}
	for name, gen := range cases {
		b.Run(name, func(b *testing.B) {
			var dt float64
			for i := 0; i < b.N; i++ {
				var err error
				dt, err = netsim.SteadyStateIterTime(gen(), topo, m, 1, 3)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)/dt/bench.MiB, "sim-MB/s")
		})
	}
}

// BenchmarkExtensionChainVsRing compares the pipelined chain baseline
// against the broadcast family across the long-message range.
func BenchmarkExtensionChainVsRing(b *testing.B) {
	const np = 16
	topo := topology.Blocked(np, topology.HornetCoresPerNode)
	m := netsim.Hornet()
	for _, n := range []int{1 << 19, 1 << 22} {
		gens := map[string]*sched.Program{
			"ring-opt": sched.Generate("bcast-opt", core.BcastOptOps, np, 0, n, 0),
			"chain":    sched.Generate("chain-bcast", core.ChainOps, np, 0, n, 64<<10),
			"binomial": sched.Generate("binomial-bcast", core.BinomialOps, np, 0, n, 0),
		}
		for name, pr := range gens {
			b.Run(fmt.Sprintf("%s/size=%d", name, n), func(b *testing.B) {
				var dt float64
				var err error
				for i := 0; i < b.N; i++ {
					dt, err = netsim.SteadyStateIterTime(pr, topo, m, 1, 3)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)/dt/bench.MiB, "sim-MB/s")
			})
		}
	}
}

// BenchmarkExtensionSMPBcast measures the multi-core aware broadcast on
// the real engine against the flat ring (both variants).
func BenchmarkExtensionSMPBcast(b *testing.B) {
	const np, n = 12, 256 << 10
	topo := topology.Blocked(np, 4)
	variants := map[string]func(mpi.Comm, []byte, int) error{
		"flat-opt": pinned(tune.RingOpt),
		"smp-opt":  pinned(tune.SMPOpt),
	}
	for name, fn := range variants {
		b.Run(name, func(b *testing.B) {
			w, err := engine.NewWorld(engine.Options{NP: np, Topology: topo, Timeout: 10 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n)
			b.ResetTimer()
			err = w.Run(func(c mpi.Comm) error {
				buf := make([]byte, n)
				for i := 0; i < b.N; i++ {
					if err := fn(c, buf, 0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Executor substrate comparison. One full world lifecycle per iteration
// — boot, barrier-free single broadcast, teardown — at np well past
// GOMAXPROCS, for both rank-execution substrates. This is the perf
// trajectory behind the pooled cooperative scheduler: run it with
//
//	go test -bench=BenchmarkExecutorWorldBcast -benchmem .
//
// and compare against BENCH_pooled_vs_goroutine.json (the recorded
// baseline of the refactor that introduced the executor layer).
// ---------------------------------------------------------------------

func BenchmarkExecutorWorldBcast(b *testing.B) {
	execs := []struct {
		name   string
		policy engine.ExecPolicy
	}{
		{"goroutine", engine.Goroutine},
		{"pooled", engine.Pooled},
	}
	for _, np := range []int{64, 256} {
		for _, ex := range execs {
			b.Run(fmt.Sprintf("exec=%s/np=%d", ex.name, np), func(b *testing.B) {
				topo := topology.Blocked(np, 32)
				n := 64 * np
				src := make([]byte, n)
				for i := range src {
					src[i] = byte(i)
				}
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					err := engine.RunWith(engine.Options{
						NP:       np,
						Topology: topo,
						Executor: ex.policy,
						Timeout:  5 * time.Minute,
					}, func(c mpi.Comm) error {
						buf := make([]byte, n)
						if c.Rank() == 0 {
							copy(buf, src)
						}
						return ringOpt(c, buf, 0)
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Steady-state broadcast benchmark. Unlike BenchmarkExecutorWorldBcast
// (which pays a full world lifecycle per iteration), this grid reuses
// one bcast.Cluster across every iteration: the first Run boots the
// world, the measured Runs relaunch rank bodies onto it, and the
// engine's pooled staging/envelope/request free lists absorb the
// per-message allocations. allocs/op here is therefore the true
// per-broadcast steady-state cost — compare against the boot-per-op
// numbers in BENCH_pooled_vs_goroutine.json. Run it with
//
//	go test -bench=BenchmarkSteadyStateBcast -benchmem .
//
// and compare against BENCH_steadystate_allocs.json (the recorded
// trajectory of the zero-alloc steady-state work). The recorded rows are
// the 64-byte chunks; at np=64 an 8 KiB-chunk row runs beside them,
// where the executor posts the ring's receives ahead of their ops into
// requests it re-arms, so the allocation gates cover that path too.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Persistent-broadcast benchmark: the serving-workload fast path. One
// cluster, one Run, one BcastInit — then b.N Start/Wait rounds on the
// resolved handle. Against BenchmarkSteadyStateBcast (which still pays a
// rank-body relaunch and a fresh tuner resolution per broadcast) this
// isolates the pure per-operation cost of the pre-resolved plan. Run it
// with
//
//	go test -bench=BenchmarkPersistentBcast -benchmem .
//
// and compare against BENCH_persistent_throughput.json (the recorded
// trajectory of the persistent-handle work; its rows are the 64-byte
// chunks, and the 8 KiB ones are where the handle's receives are posted
// ahead of their ops). msgs/bcast and ns/msg divide the timed run by the
// engine's send counters over it, so a change to the per-message path
// shows as ns/msg at an unchanged msgs/bcast; parks/bcast divides the
// executor's parks over it, the waits of a rank whose peer is behind
// (at 64-byte chunks, mostly a sender finding its bound edge's cells
// full).
// ---------------------------------------------------------------------

func BenchmarkPersistentBcast(b *testing.B) {
	const np = 64
	for _, ex := range []string{"goroutine", "pooled"} {
		for _, chunk := range []int{64, 8 << 10} {
			b.Run(fmt.Sprintf("exec=%s/np=%d/chunk=%d", ex, np, chunk), func(b *testing.B) {
				n := chunk * np
				opts := []bcast.Option{
					bcast.Procs(np),
					bcast.Placement("blocked:32"),
					bcast.Algorithm(bcast.RingOptSeg),
					bcast.SegSize(8 << 10),
					bcast.Timeout(10 * time.Minute),
				}
				if ex == "pooled" {
					opts = append(opts, bcast.ExecPooled(0))
				}
				ctx := context.Background()
				cl, err := bcast.NewCluster(ctx, opts...)
				if err != nil {
					b.Fatal(err)
				}
				// Per-rank buffers live across the whole measurement.
				bufs := make([][]byte, np)
				for r := range bufs {
					bufs[r] = make([]byte, n)
				}
				for i := range bufs[0] {
					bufs[0][i] = byte(i)
				}
				workload := func(rounds int) error {
					return cl.Run(ctx, func(c bcast.Comm) error {
						ph, err := c.BcastInit(bufs[c.Rank()], 0)
						if err != nil {
							return err
						}
						for i := 0; i < rounds; i++ {
							if err := ph.Run(ctx); err != nil {
								return err
							}
						}
						return ph.Free()
					})
				}
				// Warmup boots the world, resolves a plan once and populates
				// the pooled staging classes.
				if err := workload(1); err != nil {
					b.Fatal(err)
				}
				sends := func() int64 { m := cl.Metrics(); return m.EagerSends + m.RdvSends }
				before, parksBefore := sends(), cl.Metrics().Parks
				b.SetBytes(int64(n))
				b.ResetTimer()
				start := time.Now()
				if err := workload(b.N); err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start)
				b.StopTimer()
				if boots := cl.Boots(); boots != 1 {
					b.Fatalf("world rebooted during steady state: %d boots", boots)
				}
				// Every message the engine moved, the run's own control
				// traffic included: the per-message cost of the whole stack.
				msgs, parks := sends()-before, cl.Metrics().Parks-parksBefore
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "broadcasts/sec")
				b.ReportMetric(float64(msgs)/float64(b.N), "msgs/bcast")
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(msgs), "ns/msg")
				b.ReportMetric(float64(parks)/float64(b.N), "parks/bcast")
			})
		}
	}
}

// BenchmarkBcastInit is what a persistent broadcast costs to set up on
// msgrate-np64's shape: one op is a cold cluster — NewCluster, a Run
// whose ranks only call BcastInit, Close. Run it with
//
//	go test -run '^$' -bench BenchmarkBcastInit -benchmem .
//
// B/op and allocs/op are the set-up's garbage: a kept Plan's ops and
// edges, the world's boot, and whatever else compiling the schedule
// drops on the way.
func BenchmarkBcastInit(b *testing.B) {
	const np = 64
	b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
		ctx := context.Background()
		bufs := make([][]byte, np)
		for r := range bufs {
			bufs[r] = make([]byte, 4<<10)
		}
		setup := func() {
			cl, err := bcast.NewCluster(ctx,
				bcast.Procs(np),
				bcast.Placement("blocked:32"),
				bcast.Algorithm(bcast.RingOptSeg),
				bcast.SegSize(8<<10),
				bcast.Timeout(10*time.Minute))
			if err != nil {
				b.Fatal(err)
			}
			err = cl.Run(ctx, func(c bcast.Comm) error {
				_, err := c.BcastInit(bufs[c.Rank()], 0)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Close(); err != nil {
				b.Fatal(err)
			}
		}
		setup()
		b.ResetTimer()
		for range b.N {
			setup()
		}
	})
}

// coldShapes are the facade worlds BenchmarkColdSetup boots cold:
// short-percall-np16's (np 16, 1 KiB per-call broadcasts, MPICH3 dispatch
// with the tuned ring) and msgrate-np64's (np 64, blocked:32, a 4 KiB
// persistent opt-seg broadcast in 8 KiB segments).
var coldShapes = []struct {
	name       string
	np, n      int
	persistent bool
	opts       []bcast.Option
}{
	{"percall-np16", 16, 1 << 10, false, []bcast.Option{bcast.Tuner(bcast.MPICH3Tuner(true))}},
	{"persistent-np64", 64, 4 << 10, true, []bcast.Option{
		bcast.Placement("blocked:32"), bcast.Algorithm(bcast.RingOptSeg), bcast.SegSize(8 << 10)}},
}

// BenchmarkColdSetup is what a fresh world costs before it broadcasts
// warm, the benchmark's setup_s: one op is NewCluster, a Run of the
// first broadcast and three more (per call, or BcastInit and four runs
// of the handle), and Close. Run it with
//
//	go test -run '^$' -bench BenchmarkColdSetup -benchmem -cpuprofile cold.prof .
//
// A cold world pays its rank goroutines' stacks and its schedules'
// compile; in the profile, runtime.newstack stays a few percent and the
// elision walk (sched's build) appears once per shape, not per world.
func BenchmarkColdSetup(b *testing.B) {
	ctx := context.Background()
	for _, w := range coldShapes {
		b.Run(w.name, func(b *testing.B) {
			bufs := make([][]byte, w.np)
			for r := range bufs {
				bufs[r] = make([]byte, w.n)
			}
			setup := func() {
				cl, err := bcast.NewCluster(ctx, append(w.opts, bcast.Procs(w.np), bcast.Timeout(10*time.Minute))...)
				if err != nil {
					b.Fatal(err)
				}
				err = cl.Run(ctx, func(c bcast.Comm) error {
					buf := bufs[c.Rank()]
					if !w.persistent {
						for range 4 {
							if err := c.Bcast(ctx, buf, 0); err != nil {
								return err
							}
						}
						return nil
					}
					ph, err := c.BcastInit(buf, 0)
					if err != nil {
						return err
					}
					for range 4 {
						if err := ph.Run(ctx); err != nil {
							return err
						}
					}
					return ph.Free()
				})
				if cerr := cl.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			setup()
			b.ResetTimer()
			for range b.N {
				setup()
			}
		})
	}
}

// BenchmarkWarmRun is what a Run on a booted world pays again: one op is
// a Run whose ranks each make one per-call 4 KiB opt-seg broadcast on a
// warm np-64 cluster (blocked:32, 8 KiB segments). Every Run starts
// fresh rank goroutines with an empty per-call cache, so each compiles
// and binds its Plan again; the elided program is a copy out of the
// emitter's memo from the second Run on. Run it with
//
//	go test -run '^$' -bench BenchmarkWarmRun -benchmem .
func BenchmarkWarmRun(b *testing.B) {
	const np = 64
	b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
		ctx := context.Background()
		cl, err := bcast.NewCluster(ctx, bcast.Procs(np), bcast.Placement("blocked:32"),
			bcast.Algorithm(bcast.RingOptSeg), bcast.SegSize(8<<10), bcast.Timeout(10*time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		bufs := make([][]byte, np)
		for r := range bufs {
			bufs[r] = make([]byte, 4<<10)
		}
		run := func() {
			if err := cl.Run(ctx, func(c bcast.Comm) error { return c.Bcast(ctx, bufs[c.Rank()], 0) }); err != nil {
				b.Fatal(err)
			}
		}
		run()
		b.ResetTimer()
		for range b.N {
			run()
		}
	})
}

// ---------------------------------------------------------------------
// Wire-path throughput: the adaptive UDP transport against its own
// pinned baseline. Every rank is hosted in-process but ForceWire routes
// each broadcast hop through the real datagram socket, so this measures
// the transport — framing, adaptive RTO, congestion windowing, ACK
// coalescing, sendmmsg batching — not the network; the per-op wire
// metrics expose where the time goes. Run it with
//
//	go test -bench=BenchmarkWireThroughput -benchmem .
//
// and compare against BENCH_wire_throughput.json (the recorded
// trajectory of the wire-path work; its rows for the previous, fixed
// wire generation were recorded at commit 72c2127, the last to carry
// that generation in the binary).
// ---------------------------------------------------------------------

func BenchmarkWireThroughput(b *testing.B) {
	const np = 8
	for _, spec := range []string{transport.UDPName} {
		for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("transport=%s/size=%d", spec, n), func(b *testing.B) {
				tr, err := transport.New(spec, np)
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Close()
				m := metrics.New(np, 0)
				w, err := engine.NewWorld(engine.Options{
					NP: np, Transport: tr, Metrics: m, Timeout: 10 * time.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n))
				b.ResetTimer()
				err = w.Run(func(c mpi.Comm) error {
					buf := make([]byte, n)
					if c.Rank() == 0 {
						for i := range buf {
							buf[i] = byte(i)
						}
					}
					if err := collective.Barrier(c); err != nil {
						return err
					}
					for i := 0; i < b.N; i++ {
						if err := ringOpt(c, buf, 0); err != nil {
							return err
						}
					}
					return collective.Barrier(c)
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s := m.Snapshot()
				op := float64(b.N)
				b.ReportMetric(float64(s.WireDatagramsSent)/op, "datagrams/op")
				b.ReportMetric(float64(s.WireAcksSent)/op, "acks/op")
				b.ReportMetric(float64(s.WireRetransmits)/op, "retx/op")
				b.ReportMetric(float64(s.WireBatchedWrites)/op, "batched-writes/op")
				b.ReportMetric(float64(s.WireBatchedReads)/op, "batched-reads/op")
				b.ReportMetric(float64(s.WireDatagramsRecv)/float64(max(s.WireBatchedReads, 1)), "datagrams/read")
				b.ReportMetric(float64(s.WireDirectBytes)/float64(max(s.WireBytesRecv, 1)), "direct-share")
			})
		}
	}
}

func BenchmarkSteadyStateBcast(b *testing.B) {
	algos := []struct{ name, algo string }{
		{"native", bcast.RingNative},
		{"opt-seg", bcast.RingOptSeg},
	}
	for _, np := range []int{64, 256} {
		chunks := []int{64}
		if np == 64 {
			chunks = append(chunks, 8<<10)
		}
		for _, ex := range []string{"goroutine", "pooled"} {
			for _, al := range algos {
				for _, chunk := range chunks {
					b.Run(fmt.Sprintf("exec=%s/np=%d/algo=%s/chunk=%d", ex, np, al.name, chunk), func(b *testing.B) {
						n := chunk * np
						opts := []bcast.Option{
							bcast.Procs(np),
							bcast.Placement("blocked:32"),
							bcast.Algorithm(al.algo),
							bcast.Timeout(5 * time.Minute),
						}
						if al.algo == bcast.RingOptSeg {
							opts = append(opts, bcast.SegSize(8<<10))
						}
						if ex == "pooled" {
							opts = append(opts, bcast.ExecPooled(0))
						}
						ctx := context.Background()
						cl, err := bcast.NewCluster(ctx, opts...)
						if err != nil {
							b.Fatal(err)
						}
						// Per-rank buffers live across iterations so the rank
						// bodies allocate nothing per broadcast.
						src := make([]byte, n)
						for i := range src {
							src[i] = byte(i)
						}
						bufs := make([][]byte, np)
						for r := range bufs {
							bufs[r] = make([]byte, n)
						}
						run := func() error {
							copy(bufs[0], src)
							return cl.Run(ctx, func(c bcast.Comm) error {
								return c.Bcast(ctx, bufs[c.Rank()], 0)
							})
						}
						// Warmup boots the world and populates the pools.
						if err := run(); err != nil {
							b.Fatal(err)
						}
						b.SetBytes(int64(n))
						b.ResetTimer()
						start := time.Now()
						for i := 0; i < b.N; i++ {
							if err := run(); err != nil {
								b.Fatal(err)
							}
						}
						elapsed := time.Since(start)
						b.StopTimer()
						if boots := cl.Boots(); boots != 1 {
							b.Fatalf("world rebooted during steady state: %d boots", boots)
						}
						b.ReportMetric(float64(b.N)/elapsed.Seconds(), "broadcasts/sec")
					})
				}
			}
		}
	}
}
