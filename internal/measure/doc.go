// Package measure is the wall-clock measurement subsystem: it benchmarks
// registry-named broadcasts on the real in-process engine and feeds the
// results to the auto-tuner, grounding algorithm selection in measured
// runtimes on the communication substrate that actually executes them —
// with the netsim cost model demoted to a cross-check (internal/bench's
// CrossCheck compares the two over the same grid).
//
// The pieces:
//
//   - EngineMeasurer implements tune.Measurer: per measurement it boots
//     one engine.World over the topology tune.AutoTune built for the grid
//     point, runs the decided broadcast on the configured rank-execution
//     substrate (the Executor/MaxWorkers fields pass an engine.ExecPolicy
//     and a slot count to engine.Options: goroutine-per-rank by default,
//     or pooled execution slots, which keep np-in-the-hundreds grids
//     measurable) through each rank's collective.Calls, the per-call path
//     a facade Comm.Bcast takes, with barrier-synchronized timing (every
//     repetition starts from a barrier; the sample is the slowest rank's
//     completion), discards warmup iterations, and reduces the repetition
//     samples with a robust statistic.
//   - Summarize is the deterministic statistics kernel: min, max, mean,
//     median, and a trimmed mean after MAD-based outlier rejection. Stat
//     selects which of those a measurement reports to the tuner.
//   - SampleLog persists every raw repetition sample as JSON, so a tuning
//     run is reproducible and two runs are diffable sample-by-sample.
//
// Wall-clock numbers from a shared machine are noisy where the virtual
// time of internal/netsim is exact; the warmup/repetition protocol and
// the robust reduction exist to keep the derived crossover points stable
// anyway, following the measurement-driven tuning literature.
package measure
