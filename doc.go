// Package repro is a from-scratch Go reproduction of "A Bandwidth-saving
// Optimization for MPI Broadcast Collective Operation" (Zhou, Marjanović,
// Niethammer, Gracia — ICPP 2015, arXiv:1603.06809).
//
// The paper tunes MPICH3's scatter-ring-allgather broadcast: the native
// allgather phase runs an enclosed ring in which every rank re-receives
// chunks it already holds from the binomial scatter; the tuned ring makes
// each rank ownership-aware and skips those transfers, saving bandwidth
// with the same step count. Here that saving is one schedule pass
// (sched.Emitter.Elide): the tuned broadcasts are the native ones with
// every transfer of bytes the receiver already holds removed.
//
// This module contains the complete system: the public API facade
// (package bcast — the module's importable surface), an MPI-like
// runtime (internal/engine), the broadcast algorithm family and its
// analytic traffic model (internal/core, internal/collective), the
// algorithm registry and auto-tuning subsystem that replaces
// MPICH3's hardcoded dispatch (internal/collective's registry +
// internal/tune), a deterministic cluster simulator that regenerates
// the paper's figures at full scale (internal/netsim), traffic totals
// the engine's communicator records and internal/trace sums, the
// measurement harnesses (internal/bench), one command-line tool
// (cmd/bcast, its flag vocabulary in internal/cli), and runnable
// examples (examples/...).
// See README.md for the tour, the quickstart and the tuning workflow.
//
// Package bcast is how users reach the stack: bcast.NewCluster boots a
// placed group of ranks from functional options, Cluster.Run hands each
// rank a method-based Comm, and every communicating method takes a
// context.Context whose cancellation unwinds all ranks without leaking
// goroutines (plumbed through the engine's point-to-point operations).
// The examples import only this package.
//
// Algorithm selection is a first-class subsystem with exactly one
// path: every caller — the facade's options, the bench harness, the
// tools' shared -algo vocabulary — resolves to a collective.Options value
// whose Decide turns the call's environment into a tune.Decision that
// the registry executes. Every broadcast is a row of that named
// registry: capability predicates plus the per-rank emitter of its
// schedule (for the multi-core aware broadcasts, composed over the
// communicator's node map), which the verifier, the simulator, the tuner
// and the executor all consume; the default tuner reproduces
// MPICH3's thresholds bit-for-bit, and tune.AutoTune derives JSON
// tuning tables from measured crossover points on the simulated cluster
// (bcast tune sim) or the real engine (bcast tune engine), which
// bcast.TuneTable loads back at the API boundary. Segmentation is
// generalized from the chain broadcast to the whole scatter-ring family
// (scatter-ring-allgather-seg, scatter-ring-allgather-opt-seg), and
// the same tune.AutoTune re-measures the grid across segment sizes and
// process placements (blocked vs round-robin at varying cores per node;
// the -segs and -placements flags of both tune subcommands), emitting
// placement-keyed rule groups that resolve at run time through the
// environment derived from Comm.Topology(). See internal/tune's package documentation for the
// architecture.
//
// Measurement itself has two interchangeable substrates behind the
// tune.Measurer seam, one method that times a decision on a topology:
// the netsim virtual-time model (bench.SimMeasurer, which replays the
// decision's collective.Schedule), and internal/measure — the wall-clock
// subsystem that boots an engine.World over the topology and times the
// registered implementations between barriers, reducing warmed-up
// repetitions with robust statistics (min/median/MAD-trimmed mean) and
// persisting raw samples as JSON. One procedure, tune.AutoTune, builds
// each grid point's topology once and derives a table from either
// measurer, and bench.CrossCheck (bcast crosscheck) calls it once per
// substrate over the same grid and reports the cells where the cost model
// and the wall clock disagree on the winner.
//
// How ranks execute inside the engine is the world's choice of
// substrate (engine.ExecPolicy): the default runs one goroutine per rank,
// and the pooled substrate (engine.Options.Executor = engine.Pooled,
// bcast.ExecPooled, the tool's -exec pooled) multiplexes ranks
// cooperatively onto min(GOMAXPROCS, MaxWorkers) execution slots — ranks
// park at the engine's blocking point and release their slot, so
// worlds with np in the hundreds (the paper's Figures 5/7 regime) run
// with a bounded runnable set and wall-clock grids stay meaningful.
// TestParityMatrix (internal/collective) holds both substrates to
// byte-identical buffers and identical traced traffic for every
// registered algorithm, and every table or sample log records which
// substrate measured it.
//
// How messages move between ranks is pluggable too (internal/transport,
// engine.Options.Transport, bcast.WithTransport): the default chan
// transport keeps traffic on the in-process channel path — byte- and
// traffic-identical to the pre-seam engine by construction — while the
// udp transport carries every message over a real socket with
// length-prefixed datagram framing, sequence numbers, selective
// acknowledgements (a datagram the receiver reports holding is never
// sent again; a hole is re-sent a round trip after three later
// datagrams arrived) and a retransmit timeout behind them, so injected
// loss, duplication and reordering (transport.Faulty) cost latency,
// never correctness. A transport also decides which ranks a process
// hosts, letting one world span OS processes: the soak (bcast soak)
// spawns rank processes over loopback UDP and asserts every rank's result
// hash matches an in-process reference run. Wire activity (datagrams, bytes,
// retransmits, fast retransmits, ack round-trips) surfaces in the
// metrics Snapshot, and measurements record their transport in
// provenance.
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation section; run them with
//
//	go test -bench=. -benchmem .
package repro
