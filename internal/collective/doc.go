// Package collective implements executable MPI collectives over the
// mpi.Comm interface.
//
// The broadcast family is the subject of the reproduced paper. A
// broadcast exists in exactly one executable form: a per-rank op emitter
// in internal/core (sched.Emitter). That one function feeds
//
//	emitter -> sched.Generate -> { verifier, simulator, tuner }
//	        -> the executor (exec.go) -> the engine
//
// so the schedule that is proven deadlock-free and costed is, by
// construction, the code every rank runs. The registry (registry.go)
// names the family:
//
//   - binomial — MPICH's short-message whole-buffer binomial tree;
//   - scatter-ring-allgather — MPICH's long-message algorithm (binomial
//     scatter + enclosed ring allgather), the paper's MPI_Bcast_native;
//   - scatter-ring-allgather-opt — the paper's contribution (binomial
//     scatter + non-enclosed ring allgather, Listing 1), MPI_Bcast_opt;
//   - the -seg variants of the two rings, which pipeline the allgather
//     phase in SegSize pieces (the executor posts each segment's receive
//     as early, and completes it as late, as its bytes allow);
//   - scatter-rdb-allgather — MPICH's medium-message power-of-two
//     algorithm (binomial scatter + recursive-doubling allgather);
//   - chain — the segmented pipeline chain (extension baseline);
//   - smp / smp-opt — the multi-core aware variant described in the
//     paper's introduction: an intra-node binomial tree on the root's
//     node, a scatter-ring (native or tuned) among the node leaders, and
//     an intra-node binomial tree on every other node, composed over the
//     communicator's node map into one schedule.
//
// # The executor
//
// The executor (exec.go) runs the rank's ops in order, posting large
// receives early (manage). A kept Plan binds its edges once (Comm.Bind)
// and runs each op as one call to the binding's Move, its halves named
// by edge index; a per-call Plan runs on Send, Recv and Sendrecv.
//
// # Registry and tuning
//
// A Registration is a stable name (the tune.* name constants),
// capability predicates (power-of-two-only, multi-node-only, segmented) and the algorithm's emitter — given
// directly, or, for the SMP rows, as the function from the node map to
// it. There is no other row form: Schedule generates any row's whole
// program on a topology, and a Plan compiles the calling rank's ops from
// the same emitter on the communicator's own topology and runs them.
//
// Selection is delegated to internal/tune and flows through exactly one
// path: every caller resolves its arguments into an Options value (a
// pinned Algorithm, a SegSize, a Tuner — zero value = stock MPICH3
// dispatch) and calls Broadcast, which runs Options.Decide to obtain a
// tune.Decision and hands it to RunDecision. The public bcast facade,
// the bench harness and the CLI tools all build that struct, so "which
// algorithm runs" has a single answer per (Options, Env) everywhere in
// the system. The facade's per-call Bcast calls Calls.Broadcast on its
// rank's cache instead: the same Decide on every call, then a Plan the
// rank bound earlier for the same (bytes, root, decision), or
// RunDecision's bind, with its errors, for one it has not.
// tune.MPICH3 reproduces MPICH3's hardcoded dispatch bit-for-bit
// (pinned by a literal golden table in internal/tune), and tune.TableTuner
// dispatches through a JSON tuning table derived by the auto-tuner from
// measured crossover points. RunDecision executes a single decision
// after checking it against the registered capabilities, so a mis-keyed
// table fails loudly instead of hanging a pow2-only algorithm on 129
// ranks.
//
// The registry is a fixed table built once at init: a new algorithm is
// one more row in registry.go. The bcast tool's subcommands (bench,
// curves, count, tune) enumerate the registry rather than keeping private
// switches, so a new row is immediately benchmarkable, simulatable,
// countable, and auto-tunable. A tuning table is checked against the rows
// where it is loaded (LoadTable), so a rule naming no row fails there.
//
// Supporting collectives (Barrier, Scatter, Gather, Allgather, Reduce,
// Allreduce) exist because the examples and the benchmark
// protocol need them, mirroring how a real MPI application would use the
// library. Those that move a pattern the broadcast already has run its
// schedule through the same executor: Scatter is the binomial scatter
// phase, Gather that tree reversed (sched.Emitter.Reverse), Allgather the
// enclosed ring from root 0, and Allreduce's tail the binomial
// broadcast. Still hand-written: Reduce, which needs an op that combines
// what it receives, and Barrier, whose dissemination pattern no
// broadcast shares.
//
// All byte-buffer collectives follow MPI_BYTE semantics. Every function
// is collective: all ranks of the communicator must call it with
// compatible arguments.
package collective

// tagReduce is the hand-written reduce's tag. A collective that runs a
// schedule sends with its emitter's phase tags (core.Tag*) instead.
const tagReduce = 0x7F06
