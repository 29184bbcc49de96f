// Package bcast is the public, importable API of the broadcast system:
// a context-aware, option-driven facade over the in-process MPI-like
// engine, the broadcast-algorithm registry, and the
// auto-tuning stack underneath (the reproduction of "A Bandwidth-Saving
// Optimization for MPI Broadcast Collective Operation", ICPP 2015).
//
// # Model
//
// NewCluster boots a fixed-size group of ranks from functional options
// and returns a reusable Cluster; Cluster.Run executes a function once
// per rank, each invocation receiving a method-based Comm:
//
//	cl, err := bcast.NewCluster(ctx, bcast.Procs(8))
//	if err != nil { ... }
//	err = cl.Run(ctx, func(c bcast.Comm) error {
//		buf := make([]byte, 1<<20)
//		if c.Rank() == 0 {
//			fillPayload(buf)
//		}
//		return c.Bcast(ctx, buf, 0)
//	})
//
// Every communicating method takes a context.Context. Because an MPI
// collective left half-finished poisons every participant, cancellation
// is collective too: when a context fires, the whole run unwinds — every
// rank's blocked operation returns an error wrapping the context's cause
// (errors.Is against context.Canceled or context.DeadlineExceeded
// works), Run returns, and no rank goroutine is left behind.
//
// How ranks are scheduled is configurable: the default substrate runs
// one goroutine per rank, and ExecPooled(workers) switches Runs to a
// bounded cooperative worker pool — the scalable choice once Procs is
// well past the host's cores (hundreds of ranks), with identical
// results, traffic and cancellation semantics. Cluster.Executor reports
// the effective substrate.
//
// # Cluster reuse
//
// A Cluster amortizes its engine world across Runs: the first Run boots
// it, and every later clean Run re-launches rank bodies onto the booted
// world, whose pooled message buffers make the steady-state cost of a
// broadcast a few hundred allocations for the relaunch instead of tens
// of thousands for a boot (BENCH_steadystate_allocs.json records the
// measured trajectory). Reuse is semantically invisible — buffers and
// traced traffic are identical run over run — and it degrades safely: a
// Run that returns an error for any reason (rank failure, cancellation,
// timeout, deadlock) retires the world and the next Run transparently
// boots a fresh one. Cluster.Boots exposes the boot count, so tests can
// assert the steady state really reused (Boots() == 1) or that a
// fallback boot happened (Boots() == 2 after one failed Run).
//
// # Selection: options in, one Decision out
//
// Which broadcast algorithm runs is decided in exactly one place. Cluster
// options (Algorithm, SegSize, Tuner, TuneTable) set the defaults, per-
// call options (WithAlgorithm, WithSegSize, WithTuner) override them, and
// the merged options resolve against the call's environment — message
// size, rank count, node count and placement classification, all derived
// from the cluster's topology — into a Decision naming a registered
// algorithm and its segment size. Comm.Decision reports the resolution
// without moving a byte; Comm.Bcast runs it. Comm.Bcast resolves on
// every call, so a tuner sees every call, but compiles the schedule a
// Decision names once per (length, root, Decision) in a Run: each rank
// keeps the few it used last for its communicator, and a call that
// repeats one runs it with no registry lookup and no schedule emission. By default the dispatch is
// stock MPICH3's (binomial below 12 KiB, scatter + recursive-doubling
// for medium power-of-two, scatter + ring beyond); a TuneTable option
// loads a JSON table produced by the auto-tuner (bcast tune engine or
// bcast tune sim) and replaces those hardcoded thresholds with
// measured crossover points.
//
// # Persistent handles
//
// Serving loops that broadcast the same-shaped buffer many times use
// Comm.BcastInit to resolve the selection once and execute it many
// times, mirroring MPI persistent requests:
//
//	h, err := c.BcastInit(buf, 0)        // Init: decide + validate + warm
//	for i := 0; i < rounds; i++ {
//		if err := h.Start(); err != nil { ... }  // activate (local, no comm)
//		if err := h.Wait(ctx); err != nil { ... } // execute + complete
//	}
//	err = h.Free()
//
// The lifecycle contract: Init -> (Start -> Wait)* -> Free, with
// Persistent.Run as the Start+Wait convenience and Rebind to swap
// buffers between rounds (free for the same length; a re-resolution
// for a new one). Init is collective — every rank builds its own handle
// with the same root, length and options — and each Start/Wait round is
// collective exactly like the Bcast it replaces. The handle owns the
// buffer between Start and Wait's return: the root writes the next
// payload before the next Start, nobody touches it in between. A
// steady-state Start/Wait performs no selection work and no allocations
// (gated at <= 2 allocs per operation per rank;
// BENCH_persistent_throughput.json records the measured throughput),
// and its buffers and traced traffic are identical to the equivalent
// sequence of per-call Bcasts.
//
// A handle is bound to the Run that created it, and so is a Comm. When
// that Run returns — cleanly, by error, or by cancellation — the handle
// is retired and every later use of it, or of a communicating method of
// the Comm, fails with an error wrapping ErrStaleHandle together with
// the run's own outcome, so neither can silently broadcast onto the
// world the next Run uses.
//
// # Concurrent collectives
//
// Comm.Split partitions a running cluster into disjoint groups (equal
// colors, ordered by key; Undefined opts out). Each group's
// collectives — per-call or persistent — run concurrently with and
// fully isolated from the parent's and the sibling groups', backed by
// per-operation tag streams inside the engine: every collective entry
// advances its communicator's stream, so two overlapping operations on
// different communicators can never match each other's messages even
// though the algorithms stamp them from the same phase-tag constants.
//
// # Typed helpers
//
// BcastSlice, ScatterSlice, GatherSlice and AllgatherSlice are generic
// wrappers over the byte-buffer collectives for slices of fixed-size
// numeric types, so numeric workloads need no manual encoding.
//
// # Observability
//
// The TraceTraffic option records every message on the send side,
// classified intra- versus inter-node through the cluster's placement;
// Cluster.Traffic reports the totals. Comparing the inter-node bytes of
// Algorithm(RingNative) against Algorithm(RingOpt) reproduces the
// paper's bandwidth saving as a measurement, not a claim.
//
// Engine counters are always on: every cluster counts sends and
// receives by protocol (eager versus rendezvous), staged bytes,
// executor parks and slot waits, queue high-water marks, world boots
// and failed runs by cause — each event one atomic add on the rank
// that caused it, nothing shared, nothing allocated. Cluster.Metrics
// merges them into a Snapshot whose String, WriteProm and
// WriteChromeTrace methods render a human summary, the Prometheus text
// format, and a Chrome/Perfetto timeline respectively.
//
// Operation spans are the opt-in half: WithSpans(n) gives every rank a
// fixed n-entry ring that records each completed collective —
// operation, algorithm, segment size, bytes, start, duration — and
// drops the oldest entry when full (the Snapshot counts the drops).
// Recording is allocation-free, so the zero-alloc steady-state
// guarantees hold unchanged with spans on; the alloc gates run with
// spans enabled to keep that true.
package bcast
