package bcast

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/tune"
)

// runEpoch ties the resources minted during one Cluster.Run — the Comms
// handed to rank functions and every Persistent handle built from them
// — to that run's lifetime. When the run returns, the epoch ends with
// the run's outcome, and any handle that escaped fails loudly on its
// next use instead of silently matching (or deadlocking against) a
// fresh world's traffic: after a fallback boot the engine's context
// sequence restarts, so a stale handle's communicator may carry a
// context id a new run legitimately reuses.
type runEpoch struct {
	done  atomic.Bool
	cause error // why the run ended; nil for a clean finish. Written before done.
}

// end closes the epoch with the run's outcome. cause is published
// before the atomic store, so any goroutine that observes done sees it.
func (e *runEpoch) end(cause error) {
	e.cause = cause
	e.done.Store(true)
}

// Cluster is a configured group of ranks. It is reusable, and reuse is
// cheap: the first Run boots an engine world with the cluster's
// placement and options, and every subsequent Run re-launches rank
// bodies onto that same booted world — endpoints, executor and per-rank
// state are paid once, so the steady state of a long-lived cluster
// allocates per broadcast, not per boot (see BENCH_steadystate_allocs
// .json for the measured difference). Sequential Runs remain
// independent: each gets fresh rank functions and communicators, and
// traffic tracing, when enabled, accumulates across them in place.
//
// The fallback: a Run that returns an error of any kind — a rank
// failure, cancellation of either context, a timeout, a deadlock —
// leaves the world spent, and the next Run transparently boots a fresh
// one. Boots reports how many worlds the cluster has booted, so tests
// (and capacity planning) can observe the reuse. A Cluster must not be
// shared by concurrent Runs.
//
// How ranks execute is part of the configuration: by default each rank
// runs on its own goroutine, and the ExecPooled option switches Runs to
// a bounded cooperative worker pool — the scalable choice once Procs is
// well past the host's cores (hundreds of ranks). Executor reports the
// effective substrate.
type Cluster struct {
	base      context.Context
	np        int
	topo      *topology.Map
	opts      callDefaults
	eager     int
	timeout   time.Duration
	exec      engine.ExecPolicy
	workers   int
	collector *trace.Collector

	// transport is the configured point-to-point substrate spec
	// (WithTransport); trans is the live transport booted with the
	// current world, closed when the world is retired or the cluster is
	// Closed.
	transport string
	trans     transport.Transport

	// world is the booted engine world Runs reuse; nil (or spent) means
	// the next Run boots. boots counts world boots for observability.
	world *engine.World
	boots int

	// metrics is the cluster-lifetime instrumentation, handed to every
	// world the cluster boots so counters and spans survive fallback
	// reboots. runs/failedRuns/retired are the facade-level lifecycle
	// counts Metrics folds into the Snapshot.
	metrics    *metrics.Metrics
	runs       int64
	failedRuns int64
	retired    map[string]int64
}

// NewCluster validates the options and returns a Cluster bound to ctx:
// cancellation of ctx aborts every subsequent Run, in addition to the
// per-Run context. The Procs option is required; everything else
// defaults (single-node placement, stock MPICH3 selection).
func NewCluster(ctx context.Context, opts ...Option) (*Cluster, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("bcast: cluster context already canceled: %w", err)
	}
	var cfg config
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("bcast: nil option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.topo()
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		base:      ctx,
		np:        cfg.np,
		topo:      topo,
		opts:      callDefaults{o: cfg.opts},
		eager:     cfg.eager,
		timeout:   cfg.timeout,
		exec:      cfg.exec,
		workers:   cfg.workers,
		transport: cfg.transport,
		metrics:   metrics.New(cfg.np, cfg.spanCap),
	}
	if cfg.traffic {
		cl.collector = trace.NewCollector()
	}
	return cl, nil
}

// NP returns the number of ranks.
func (cl *Cluster) NP() int { return cl.np }

// NumNodes returns the number of distinct nodes in the placement.
func (cl *Cluster) NumNodes() int { return cl.topo.NumNodes() }

// Placement returns the placement classification: "single", "blocked",
// "round-robin" or "irregular".
func (cl *Cluster) Placement() string { return cl.topo.Kind() }

// Executor names the rank-execution substrate each Run boots, worker
// clamp applied: "goroutine" (the default), or "pooled(N)" when the
// cluster was built with ExecPooled.
func (cl *Cluster) Executor() string {
	return engine.ExecLabel(cl.exec, cl.workers)
}

// Decision reports which algorithm the cluster's options (overridden by
// any per-call options) would select for an n-byte broadcast over the
// full cluster, without moving a byte. Inside Run, Comm.Decision is the
// same resolution for that rank's communicator.
func (cl *Cluster) Decision(n int, opts ...CallOption) Decision {
	o := cl.opts.merge(opts)
	return o.Decide(tune.EnvOf(n, cl.np, cl.topo))
}

// Run executes fn once per rank, concurrently, and waits for all ranks.
// A rank returning an error (or panicking) aborts the whole run; so
// does cancellation of ctx or of the cluster's base context — every
// blocked operation on every rank then returns an error wrapping the
// cause, and Run returns with no rank goroutine left behind. The Comm
// passed to fn is only valid during the call.
//
// The first Run boots an engine world; clean Runs reuse it, and a Run
// that returns an error retires it so the next Run boots a fresh one
// (see the Cluster documentation for the reuse contract).
func (cl *Cluster) Run(ctx context.Context, fn func(Comm) error) error {
	if fn == nil {
		return fmt.Errorf("bcast: nil rank function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Merge the cluster's base context into the run context, preserving
	// the cancellation cause of whichever fires first.
	if cl.base.Done() != nil {
		merged, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		stop := context.AfterFunc(cl.base, func() {
			cancel(context.Cause(cl.base))
		})
		defer stop()
		ctx = merged
	}
	w := cl.world
	if w == nil || !w.Reusable() {
		// A retired world's transport goes with it; each boot gets a
		// fresh one (a UDP socket does not survive a wedged run any
		// better than the world does).
		if cl.trans != nil {
			cl.trans.Close()
			cl.trans = nil
		}
		trans, err := transport.New(cl.transport, cl.np)
		if err != nil {
			return fmt.Errorf("bcast: %w", err)
		}
		w, err = engine.NewWorld(engine.Options{
			NP:         cl.np,
			Topology:   cl.topo,
			EagerLimit: cl.eager,
			Timeout:    cl.timeout,
			Executor:   cl.exec,
			MaxWorkers: cl.workers,
			Metrics:    cl.metrics,
			Transport:  trans,
		})
		if err != nil {
			trans.Close()
			return fmt.Errorf("bcast: %w", err)
		}
		cl.world = w
		cl.trans = trans
		cl.boots++
	}
	epoch := &runEpoch{}
	cl.runs++
	err := w.RunContext(ctx, func(mc mpiComm) error {
		if cl.collector != nil {
			// Per-rank traffic rows keep the collector's memory
			// constant however many runs reuse this world.
			mc = cl.collector.WrapSlot(mc.Rank(), mc)
		}
		rank := new(rankCalls)
		defer rank.release()
		return fn(Comm{mc: mc, defaults: cl.opts, epoch: epoch, calls: &rank.world, rank: rank})
	})
	// Retire everything minted during the run — escaped Persistent
	// handles now fail with ErrStaleHandle (carrying this run's outcome
	// as the cause) rather than matching stale traffic on whatever world
	// the next Run uses.
	epoch.end(err)
	if err != nil {
		// Fallback to per-run boot: an aborted (or strictness-failed)
		// world may hold wedged state; retire it rather than reason
		// about partial cleanup.
		cl.world = nil
		if cl.trans != nil {
			cl.trans.Close()
			cl.trans = nil
		}
		cl.failedRuns++
		if cl.retired == nil {
			cl.retired = map[string]int64{}
		}
		cl.retired[retireCause(err)]++
	}
	return err
}

// Transport names the point-to-point substrate each Run boots: "chan"
// (the in-process default) or "udp" when the cluster was built with
// WithTransport("udp").
func (cl *Cluster) Transport() string {
	if cl.transport == "" {
		return transport.ChanName
	}
	return cl.transport
}

// Close releases the cluster's booted resources — today the live
// transport, tomorrow whatever else a backend pins. Clusters on the
// default in-process transport hold nothing a finalizer would not
// reclaim, so Close is optional there; clusters built with
// WithTransport("udp") hold an open socket and should be Closed when
// retired. Close does not interrupt a Run in flight; call it between
// Runs, after which the next Run boots fresh.
func (cl *Cluster) Close() error {
	cl.world = nil
	if cl.trans != nil {
		err := cl.trans.Close()
		cl.trans = nil
		return err
	}
	return nil
}

// Boots reports how many engine worlds the cluster has booted so far:
// 1 after any number of clean Runs (the steady state), +1 for every
// fallback boot forced by a failed or canceled Run. Call it between
// Runs, not during one.
func (cl *Cluster) Boots() int { return cl.boots }

// Traffic describes the message traffic of a cluster's runs, classified
// through the placement: Inter counts messages whose sender and
// receiver sit on different nodes — the traffic the paper's
// optimization saves — and Recvs the completed receives.
type Traffic = metrics.TrafficTotals

// Traffic returns the totals accumulated over the cluster's finished
// runs. It reports false unless the cluster was built with
// TraceTraffic. Call it between Runs, not during one.
func (cl *Cluster) Traffic() (Traffic, bool) {
	if cl.collector == nil {
		return Traffic{}, false
	}
	s := cl.collector.Stats()
	return Traffic{
		Messages: s.Total.Messages, Bytes: s.Total.Bytes,
		IntraMessages: s.Intra.Messages, IntraBytes: s.Intra.Bytes,
		InterMessages: s.Inter.Messages, InterBytes: s.Inter.Bytes,
		Recvs: s.Recvs,
	}, true
}
