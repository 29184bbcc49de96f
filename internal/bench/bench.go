// Package bench implements the paper's measurement protocol and the
// parameter sweeps behind every figure of the evaluation section.
//
// Two harnesses share the same reporting types:
//
//   - the real harness runs the executable collectives on the in-process
//     engine and reports wall-clock bandwidth, reproducing the paper's
//     user-level testing (barrier, then a loop of broadcasts, bandwidth =
//     message size over mean iteration time, in base-2 MB/s);
//   - the simulated harness replays the algorithms' schedules on the
//     netsim cluster model at full paper scale (up to 256 ranks and 32 MB
//     messages), regenerating the series of Figures 6(a-c), 7 and 8.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/tune"
)

// MiB is 2^20 bytes; the paper uses megabytes "in the base-2 sense".
const MiB = 1 << 20

// Result is one measured point.
type Result struct {
	// Bytes is the broadcast message size.
	Bytes int
	// Seconds is the time per broadcast iteration.
	Seconds float64
	// MBps is Bytes/Seconds in base-2 MB/s.
	MBps float64
}

func newResult(bytes int, seconds float64) Result {
	r := Result{Bytes: bytes, Seconds: seconds}
	if seconds > 0 {
		r.MBps = float64(bytes) / seconds / MiB
	}
	return r
}

// algoAliases are the short -algo spellings of the paper's two
// broadcasts; every other spelling is a registry name or auto / auto-opt.
var algoAliases = map[string]string{
	"native": tune.RingNative,
	"opt":    tune.RingOpt,
}

// ParseAlgo resolves the -algo vocabulary the CLI tools share onto the
// module's selection options: a registry algorithm name (or the alias
// native / opt) pins that algorithm; auto and auto-opt select through the
// MPICH3 dispatch with the native or the tuned ring.
func ParseAlgo(name string) (collective.Options, error) {
	switch name {
	case "auto":
		return collective.Options{Tuner: tune.MPICH3{}}, nil
	case "auto-opt":
		return collective.Options{Tuner: tune.MPICH3{Tuned: true}}, nil
	}
	if full, ok := algoAliases[name]; ok {
		name = full
	}
	o := collective.Options{Algorithm: name}
	if name == "" {
		return o, fmt.Errorf("bench: -algo: empty algorithm name")
	}
	if err := o.Validate(); err != nil {
		return o, fmt.Errorf("bench: -algo %q: %w (or native|opt|auto|auto-opt)", name, err)
	}
	return o, nil
}

// ParseAlgos is ParseAlgo over a comma-separated list.
func ParseAlgos(list string) ([]collective.Options, error) {
	var out []collective.Options
	for _, name := range strings.Split(list, ",") {
		o, err := ParseAlgo(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// RealConfig configures a real-engine measurement.
type RealConfig struct {
	// NP is the rank count.
	NP int
	// CoresPerNode controls the blocked placement (0 = single node).
	CoresPerNode int
	// EagerLimit overrides the engine protocol threshold (0 = default).
	EagerLimit int
	// Iterations is the number of broadcasts per measurement (the paper
	// uses 100).
	Iterations int
	// Root is the broadcast root.
	Root int
	// Algo, when non-empty, pins a registry algorithm by name; SegSize is
	// its segment parameter (segmented algorithms only, 0 = default).
	Algo    string
	SegSize int
	// Tuner, when non-nil, takes precedence over Algo: every broadcast
	// dispatches through it (table-driven or MPICH3 selection). With
	// neither set the default MPICH3 dispatch selects.
	Tuner tune.Tuner
	// Executor selects the engine's rank-execution substrate and
	// MaxWorkers bounds the pooled executor's worker count — see
	// engine.Options.
	Executor   engine.ExecPolicy
	MaxWorkers int
	// Metrics, when non-nil, instruments the measurement worlds (it must
	// be sized for NP ranks; build it with span capacity to record
	// operation spans). Nil worlds still count into a private Metrics —
	// the engine's counters are always on — it is just unreadable here.
	Metrics *metrics.Metrics
	// Transport selects the engine's point-to-point substrate by name
	// ("" or "chan" = in-process; "udp" = every message crosses a
	// loopback UDP socket). The measurement boots and closes its own
	// transport.
	Transport string
}

// ExecLabel names the configured rank-execution substrate for the
// benchmark's provenance line, worker clamp applied.
func (cfg RealConfig) ExecLabel() string {
	return engine.ExecLabel(cfg.Executor, cfg.MaxWorkers)
}

// TransportLabel names the configured point-to-point substrate for the
// same provenance line ("chan", "udp").
func (cfg RealConfig) TransportLabel() string {
	if cfg.Transport == "" {
		return transport.ChanName
	}
	return cfg.Transport
}

// options resolves what the harness measures into the module's one
// selection struct, so it runs exactly what a facade caller with the
// same options would. Tuner beats Algo, and SegSize stays the
// pinned-algorithm parameter (tuner decisions keep their own segment
// sizes).
func (cfg RealConfig) options() (collective.Options, error) {
	o := collective.Options{Algorithm: cfg.Algo, SegSize: cfg.SegSize}
	if cfg.Tuner != nil {
		o = collective.Options{Tuner: cfg.Tuner}
	}
	if err := o.Validate(); err != nil {
		return o, fmt.Errorf("bench: %w", err)
	}
	return o, nil
}

func (cfg RealConfig) topology() *topology.Map {
	if cfg.CoresPerNode <= 0 {
		return topology.SingleNode(cfg.NP)
	}
	return topology.Blocked(cfg.NP, cfg.CoresPerNode)
}

// MeasureReal runs the paper's protocol on the real engine: synchronize
// with a barrier, run cfg.Iterations broadcasts back to back, synchronize
// again, and report bandwidth from the root's elapsed wall-clock time.
func MeasureReal(cfg RealConfig, n int) (Result, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 100
	}
	o, err := cfg.options()
	if err != nil {
		return Result{}, err
	}
	trans, err := transport.New(cfg.Transport, cfg.NP)
	if err != nil {
		return Result{}, err
	}
	defer trans.Close()
	var elapsed time.Duration
	err = engine.RunWith(engine.Options{
		NP:         cfg.NP,
		Topology:   cfg.topology(),
		EagerLimit: cfg.EagerLimit,
		Timeout:    10 * time.Minute,
		Executor:   cfg.Executor,
		MaxWorkers: cfg.MaxWorkers,
		Metrics:    cfg.Metrics,
		Transport:  trans,
	}, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == cfg.Root {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := collective.Barrier(c); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < cfg.Iterations; i++ {
			if err := collective.Broadcast(c, buf, cfg.Root, o); err != nil {
				return err
			}
		}
		if err := collective.Barrier(c); err != nil {
			return err
		}
		if c.Rank() == cfg.Root {
			elapsed = time.Since(start)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return newResult(n, elapsed.Seconds()/float64(cfg.Iterations)), nil
}

// SimConfig configures a simulated measurement.
type SimConfig struct {
	// Model is the cluster calibration (netsim.Hornet() by default).
	Model *netsim.Model
	// CoresPerNode controls the blocked placement (default 24, Hornet).
	CoresPerNode int
	// Warm and Total bound the steady-state replication (defaults 2, 6).
	Warm, Total int
	// Root is the broadcast root.
	Root int
}

func (cfg *SimConfig) fill() {
	if cfg.Model == nil {
		cfg.Model = netsim.Hornet()
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = topology.HornetCoresPerNode
	}
	if cfg.Warm <= 0 {
		cfg.Warm = 2
	}
	if cfg.Total <= cfg.Warm {
		cfg.Total = cfg.Warm + 4
	}
}
