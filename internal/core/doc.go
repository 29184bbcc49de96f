// Package core implements the algorithmic content of the reproduced paper
// ("A Bandwidth-saving Optimization for MPI Broadcast Collective
// Operation", Zhou et al., ICPP 2015) as pure, deterministic functions:
//
//   - the chunk layout used by MPICH's scatter-ring-allgather broadcast
//     (ceil(n/P)-byte chunks with short or empty tails);
//   - the binomial scatter tree (Figures 1 and 2) and the resulting
//     per-rank data ownership intervals;
//   - one per-rank op emitter (sched.Emitter) for every algorithm
//     involved: binomial scatter, native enclosed ring allgather
//     (Figure 3) and its segmented variant, recursive-doubling allgather
//     (the MPICH medium-message power-of-two path), whole-buffer binomial
//     broadcast (the short-message path, and reversed the reduction
//     tree), the pipelined chain and the dissemination barrier;
//   - the tuned non-enclosed ring (Figures 4 and 5) as no emitter of its
//     own: the native broadcasts elided (sched.Emitter.Elide), with the
//     (step, flag) computation of Listing 1 kept as their oracle;
//   - the emitters that depend on the node map (topology.Map), built from
//     the ones above with sched.OnGroup: the multi-core aware broadcasts
//     (a tree per node around a scatter-ring among the node leaders) and
//     the node-aware ring order;
//   - the analytic traffic model, including the closed-form message
//     savings the paper quotes (P=8: 56 -> 44, P=10: 90 -> 75).
//
// Everything here is side-effect free and independent of any runtime.
// An emitter is the only form an algorithm takes: sched.Generate loops it
// over all ranks for the verifier, the network simulator
// (internal/netsim) and the auto-tuner, and the executor in
// internal/collective runs the calling rank's ops from the same function
// on the real engine. The closed-form traffic model shares no code with
// the emitters, and tests hold traced executions to both.
package core
