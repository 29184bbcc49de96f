// Package tune is the broadcast-algorithm selection subsystem.
//
// The reproduced paper's central observation is that which broadcast
// algorithm wins depends on the message size, the process count, and the
// topology — MPICH3 hardcodes that choice behind fixed thresholds.
// This package makes selection itself a first-class, replaceable layer:
//
//   - Env is the selection key: message size, process count, node count,
//     node occupancy and placement classification (all carried through
//     the communicator's topology.Map — see EnvOf);
//   - Decision names a registered algorithm plus its parameters
//     (currently the segment size for pipelined schedules);
//   - Tuner maps Env to Decision. MPICH3 is the default tuner and
//     reproduces MPICH3's dispatch bit-for-bit (pinned by a literal
//     golden table in this package's tests);
//   - Table is a JSON-serializable rule list (size/procs/topology/
//     placement-keyed, first match wins) and TableTuner dispatches
//     through one;
//   - AutoTune sweeps Candidates over a (procs x sizes) grid and derives
//     a Table from the per-point winners, the measured crossover points
//     of the paper's Section V. It builds each grid point's topology
//     once and asks a Measurer for the time of a Decision on it; this
//     package measures nothing itself (the netsim model's measurer is
//     internal/bench's, the real engine's internal/measure's). The grid
//     extends along the two axes those crossovers are known to shift
//     with: segment sizes (every Segmented candidate measured at each
//     swept size) and placements (blocked vs round-robin at varying cores
//     per node), emitting one placement-keyed rule group per placement.
//
// The executable algorithms live in internal/collective, in a registry
// table keyed by the names below; internal/collective
// depends on this package (for Env/Decision/Tuner), never the reverse.
//
// # Where selection happens: the facade architecture
//
// Tuning is configured at the API boundary and resolved on one path.
// The public facade (package bcast, the module's importable surface)
// turns its functional options — a pinned algorithm, a segment size, a
// custom tuner, a JSON table loaded by bcast.TuneTable — into a
// collective.Options value; collective.Broadcast derives the Env from
// the communicator (EnvOf over Comm.Topology()) and calls
// Options.Decide, which yields exactly one Decision; and
// collective.RunDecision executes it through the registry after
// checking capabilities. The bench harness and the CLI tools fill the
// same struct, so "which algorithm runs" has a single answer per
// (Options, Env) everywhere — the one-selection-path invariant. Nothing below the Options layer hardcodes a choice, and
// nothing above it re-derives one: a table derived by AutoTune
// under a swept placement therefore resolves at run time exactly as it
// was measured, whether the call came from the facade, a CLI tool, or
// the measurement subsystem itself.
package tune

import "repro/internal/topology"

// Registered broadcast algorithm names. The collective registry and every
// tuning table use these strings; they are the stable, CLI-friendly
// identifiers of the algorithm family.
const (
	// Binomial is the whole-buffer binomial tree (MPICH short-message).
	Binomial = "binomial"
	// ScatterRdb is binomial scatter + recursive-doubling allgather
	// (MPICH medium-message, power-of-two communicators only).
	ScatterRdb = "scatter-rdb-allgather"
	// RingNative is binomial scatter + enclosed ring allgather — the
	// paper's MPI_Bcast_native (MPICH long-message).
	RingNative = "scatter-ring-allgather"
	// RingOpt is binomial scatter + the paper's non-enclosed ring
	// allgather — MPI_Bcast_opt.
	RingOpt = "scatter-ring-allgather-opt"
	// RingSeg is the segmented native ring broadcast: the enclosed ring
	// allgather pipelined in SegSize chunks.
	RingSeg = "scatter-ring-allgather-seg"
	// RingOptSeg is the segmented tuned ring broadcast: the non-enclosed
	// ring allgather pipelined in SegSize chunks.
	RingOptSeg = "scatter-ring-allgather-opt-seg"
	// Chain is the segmented pipeline-chain broadcast (extension
	// baseline; takes a segment-size parameter).
	Chain = "chain"
	// SMP is the multi-core aware broadcast with the native inter-node
	// ring; SMPOpt uses the paper's tuned ring between node leaders.
	SMP    = "smp"
	SMPOpt = "smp-opt"
)

// MPICH3 broadcast dispatch thresholds (Section V of the paper: "The
// message size threshold determined by MPICH3 to switch from short
// messages to medium messages is 12288 bytes and ... from medium to long
// messages is 524288 bytes").
const (
	// ShortMsgSize: messages strictly below this use the binomial tree.
	ShortMsgSize = 12288
	// LongMsgSize: messages at or above this always use
	// scatter-ring-allgather.
	LongMsgSize = 512 << 10
	// MinRingProcs: communicators smaller than this always use the
	// binomial tree (MPIR_BCAST_MIN_PROCS in MPICH).
	MinRingProcs = 8
)

// Env is the selection key a Tuner decides on: everything about a
// broadcast call that is known before any byte moves.
type Env struct {
	// Bytes is the broadcast message size.
	Bytes int
	// Procs is the communicator size.
	Procs int
	// NumNodes is the number of distinct nodes hosting the communicator's
	// ranks (0 or 1 means single-node; selection must not depend on the
	// difference).
	NumNodes int
	// CoresPerNode is the largest number of ranks hosted on one node
	// (topology.Map.MaxCoresPerNode; 0 = unknown, and selection must not
	// depend on the difference between 0 and an unconstrained rule).
	CoresPerNode int
	// Placement classifies the rank-to-node mapping — one of the
	// topology.Kind* names ("single", "blocked", "round-robin",
	// "irregular"; "" = unknown).
	Placement string
}

// EnvOf derives the full selection environment of an n-byte broadcast
// over the ranks placed by topo: node count, node occupancy and placement
// classification all come from the map, so a table tuned under a swept
// placement matches the same environment at run time.
func EnvOf(n, procs int, topo *topology.Map) Env {
	e := Env{Bytes: n, Procs: procs}
	if topo != nil {
		e.NumNodes = topo.NumNodes()
		e.CoresPerNode = topo.MaxCoresPerNode()
		e.Placement = topo.Kind()
	}
	return e
}

// Pow2 reports whether the process count is a power of two.
func (e Env) Pow2() bool { return e.Procs > 0 && e.Procs&(e.Procs-1) == 0 }

// MultiNode reports whether the communicator spans more than one node.
func (e Env) MultiNode() bool { return e.NumNodes > 1 }

// Decision is a tuner's verdict: the registry name of the algorithm to
// run and its parameters.
type Decision struct {
	// Algorithm is the registered algorithm name (e.g. RingOpt).
	Algorithm string `json:"algorithm"`
	// SegSize is the segment size in bytes for segmented (pipelined)
	// algorithms; 0 means the algorithm's default.
	SegSize int `json:"seg_size,omitempty"`
}

// Tuner selects a broadcast algorithm for an environment. Implementations
// must be pure: the same Env always yields the same Decision, and Decide
// must be safe for concurrent use (every rank of a communicator calls it
// and all must agree).
type Tuner interface {
	Decide(e Env) Decision
}

// MPICH3 is the default tuner: the dispatch MPICH3 hardcodes, reproduced
// bit-for-bit (short: binomial; medium power-of-two: scatter +
// recursive doubling; long or medium non-power-of-two: scatter + ring).
// With Tuned set, the ring path selects the paper's non-enclosed ring.
type MPICH3 struct {
	// Tuned selects the paper's optimized ring on the ring paths.
	Tuned bool
}

// Decide implements Tuner.
func (m MPICH3) Decide(e Env) Decision {
	switch {
	case e.Bytes < ShortMsgSize || e.Procs < MinRingProcs:
		return Decision{Algorithm: Binomial}
	case e.Bytes < LongMsgSize && e.Pow2():
		return Decision{Algorithm: ScatterRdb}
	case m.Tuned:
		return Decision{Algorithm: RingOpt}
	default:
		return Decision{Algorithm: RingNative}
	}
}
