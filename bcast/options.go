package bcast

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/tune"
)

// config is the resolved cluster configuration NewCluster builds from
// its options.
type config struct {
	np        int
	placement tune.Placement
	nodeOf    []int // custom placement; overrides placement when set
	opts      collective.Options
	hasTuner  bool // a Tuner or TuneTable option was given
	eager     int
	timeout   time.Duration
	traffic   bool
	exec      engine.ExecPolicy
	workers   int
	spanCap   int
	transport string
}

// Option configures a Cluster. Options are applied in order by
// NewCluster; conflicting selection options (Algorithm versus
// Tuner/TuneTable) are rejected rather than silently ranked.
type Option func(*config) error

// Procs sets the number of ranks (required, > 0).
func Procs(np int) Option {
	return func(c *config) error {
		if np <= 0 {
			return fmt.Errorf("bcast: Procs must be positive, got %d", np)
		}
		c.np = np
		return nil
	}
}

// Placement maps ranks onto nodes from a spec string: "single" (all
// ranks on one node, the default), "blocked:N" (N consecutive ranks per
// node) or "round-robin:N" (ranks dealt across nodes of capacity N).
// The spec vocabulary matches the CLI tools' -placements flag, so a
// placement used to derive a tuning table names the same mapping here.
func Placement(spec string) Option {
	return func(c *config) error {
		pl, err := tune.ParsePlacement(spec)
		if err != nil {
			return fmt.Errorf("bcast: %w", err)
		}
		c.placement = pl
		c.nodeOf = nil
		return nil
	}
}

// CustomPlacement places rank i on node nodeOf[i] for irregular
// layouts the Placement specs cannot express. The slice length must
// equal the Procs value.
func CustomPlacement(nodeOf ...int) Option {
	return func(c *config) error {
		if len(nodeOf) == 0 {
			return fmt.Errorf("bcast: empty custom placement")
		}
		c.nodeOf = append([]int(nil), nodeOf...)
		c.placement = tune.Placement{}
		return nil
	}
}

// Algorithm pins every broadcast of the cluster to one registered
// algorithm (see the name constants and Algorithms), bypassing the
// tuner. Mutually exclusive with Tuner and TuneTable; per-call
// overrides remain available through WithAlgorithm and WithTuner.
func Algorithm(name string) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("bcast: empty algorithm name")
		}
		c.opts.Algorithm = name
		return nil
	}
}

// SegSize sets the pipeline segment size in bytes for segmented
// algorithms: the parameter of a pinned Algorithm, or an override of
// the tuner's segment choice when positive.
func SegSize(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("bcast: negative segment size %d", n)
		}
		c.opts.SegSize = n
		return nil
	}
}

// Tuner installs fn as the cluster's algorithm selector. The function
// must be pure (see TunerFunc). Mutually exclusive with Algorithm and
// TuneTable.
func Tuner(fn TunerFunc) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("bcast: nil tuner")
		}
		if c.hasTuner {
			return fmt.Errorf("bcast: a tuner is already configured (give Tuner or TuneTable at most once)")
		}
		c.opts.Tuner = fn
		c.hasTuner = true
		return nil
	}
}

// TuneTable loads a JSON tuning table — the artifact bcast tune engine
// and bcast tune sim emit — and dispatches every
// broadcast through it, falling back to the default MPICH3 selection
// for environments no rule covers. The table is read and validated
// here, its rules against the registered algorithms too, so a malformed
// file fails NewCluster, not a broadcast deep in a run. Mutually exclusive with Algorithm and Tuner.
func TuneTable(path string) Option {
	return func(c *config) error {
		if c.hasTuner {
			return fmt.Errorf("bcast: a tuner is already configured (give Tuner or TuneTable at most once)")
		}
		t, err := collective.LoadTable(path)
		if err != nil {
			return fmt.Errorf("bcast: %w", err)
		}
		c.opts.Tuner = tune.TableTuner{Table: t, Fallback: tune.MPICH3{}}
		c.hasTuner = true
		return nil
	}
}

// EagerLimit overrides the engine's eager/rendezvous protocol threshold
// in bytes (0 = engine default, negative = rendezvous for every
// message).
func EagerLimit(n int) Option {
	return func(c *config) error {
		c.eager = n
		return nil
	}
}

// Timeout bounds each Run's wall-clock time (0 = the engine default of
// two minutes per the measurement subsystem, 120 s for plain runs).
// Prefer a context deadline for per-call bounds; Timeout is the
// last-resort guard against a wedged run.
func Timeout(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("bcast: negative timeout %v", d)
		}
		c.timeout = d
		return nil
	}
}

// ExecPooled runs each Run's ranks on a bounded cooperative worker pool
// instead of the default one-goroutine-per-rank substrate: a rank is
// runnable only while it holds one of min(GOMAXPROCS, workers) slots and
// parks (slot released) whenever it blocks in a collective or
// point-to-point call. Use it when Procs is well past the host's core
// count — wall-clock behavior then reflects the communication schedule
// rather than OS-scheduler noise, and clusters with hundreds of ranks
// stay practical. workers 0 means GOMAXPROCS, which is the right choice
// unless the host is shared; negative is rejected. Cancellation
// semantics are identical across substrates.
func ExecPooled(workers int) Option {
	return func(c *config) error {
		if workers < 0 {
			return fmt.Errorf("bcast: negative worker count %d (0 = GOMAXPROCS)", workers)
		}
		c.exec = engine.Pooled
		c.workers = workers
		return nil
	}
}

// TraceTraffic records every message sent during the cluster's runs,
// classified intra- versus inter-node; Cluster.Traffic reports the
// accumulated totals.
func TraceTraffic() Option {
	return func(c *config) error {
		c.traffic = true
		return nil
	}
}

// WithSpans enables operation spans: every run of a collective's
// schedule a rank completes is recorded (a zero-chunk Scatter, Gather or
// Allgather runs none) — operation, algorithm, segment size, byte count,
// start and duration — into a fixed per-rank ring of n entries that drops the
// oldest span when full (the Snapshot reports how many were dropped).
// Recording is allocation-free, so the steady-state guarantees hold
// with spans on. Cluster.Metrics returns the retained spans;
// Snapshot.WriteChromeTrace renders them as a Chrome/Perfetto timeline.
// Counters need no option — they are always on.
func WithSpans(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("bcast: WithSpans needs a positive per-rank capacity, got %d", n)
		}
		c.spanCap = n
		return nil
	}
}

// WithTransport selects the engine's point-to-point substrate by name:
// transport.ChanName (the in-process default, also selected by "") or
// transport.UDPName, which routes every message through a loopback UDP
// socket using the real datagram framing and retransmit machinery (see
// internal/transport). The cluster boots a fresh transport with each
// world and closes it when the world is retired or the cluster is
// Closed. Traffic and results are byte-identical across transports; only
// wall-clock differs.
func WithTransport(spec string) Option {
	return func(c *config) error {
		switch spec {
		case "", transport.ChanName, transport.UDPName:
			c.transport = spec
			return nil
		default:
			return fmt.Errorf("bcast: unknown transport %q (have %q, %q)", spec, transport.ChanName, transport.UDPName)
		}
	}
}

// topo realizes the configured placement for the configured rank count.
func (c *config) topo() (*topology.Map, error) {
	if c.nodeOf != nil {
		if len(c.nodeOf) != c.np {
			return nil, fmt.Errorf("bcast: custom placement has %d ranks, Procs is %d", len(c.nodeOf), c.np)
		}
		m, err := topology.Custom(c.nodeOf)
		if err != nil {
			return nil, fmt.Errorf("bcast: %w", err)
		}
		return m, nil
	}
	if c.placement.Kind == "" {
		return topology.SingleNode(c.np), nil
	}
	m, err := c.placement.Map(c.np)
	if err != nil {
		return nil, fmt.Errorf("bcast: %w", err)
	}
	return m, nil
}

// validate cross-checks the assembled configuration.
func (c *config) validate() error {
	if c.np <= 0 {
		return fmt.Errorf("bcast: the Procs option is required")
	}
	if c.opts.Algorithm != "" && c.hasTuner {
		return fmt.Errorf("bcast: Algorithm is mutually exclusive with Tuner and TuneTable (use per-call WithAlgorithm to override a tuner)")
	}
	if err := c.opts.Validate(); err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	return nil
}
