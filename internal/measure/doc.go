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
//     one engine.World whose topology realizes a tune.Placement, runs the
//     named broadcast on the configured rank-execution substrate (the
//     Executor/MaxWorkers fields select the engine's goroutine-per-rank
//     default or the pooled cooperative scheduler — the latter is what
//     keeps np-in-the-hundreds grids measurable) with barrier-synchronized
//     timing (every repetition starts from a barrier; the sample is the
//     slowest rank's completion), discards warmup iterations, and reduces
//     the repetition samples with a robust statistic. It plugs straight
//     into tune.AutoTune's measurer-factory seam.
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
