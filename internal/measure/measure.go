package measure

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/tune"
)

// Default measurement protocol: enough repetitions for the robust
// statistics to reject a straggler, few enough that a full tuning grid
// stays interactive.
const (
	// DefaultWarmup is the number of untimed iterations that precede the
	// samples (first-touch page faults, cache warming, goroutine spin-up).
	DefaultWarmup = 2
	// DefaultReps is the number of timed repetitions per grid point.
	DefaultReps = 5
	// DefaultTimeout bounds one grid point's world wall-clock.
	DefaultTimeout = 2 * time.Minute
)

// EngineMeasurer measures candidates by executing them on the real
// in-process engine (internal/engine): every Measure call boots a fresh
// engine.World whose topology realizes Place, runs the candidate's
// registered implementation on the configured rank-execution substrate
// (Executor/MaxWorkers), and times repetitions between barriers. It
// implements tune.Measurer and — via Factory, which rebinds Place —
// plugs into tune.AutoTune's placement sweep.
//
// Unlike tune.SimMeasurer this measures wall-clock time on the host
// actually running the broadcast, so results are machine-dependent and
// noisy; Warmup, Reps and Stat control the protocol that tames the
// noise. The zero value measures on a single node with the default
// protocol.
type EngineMeasurer struct {
	// Place selects the rank placement; a zero Place (empty Kind) puts
	// every rank on one node.
	Place tune.Placement
	// Warmup and Reps are the untimed and timed iteration counts
	// (defaults DefaultWarmup, DefaultReps; a negative Warmup means
	// none).
	Warmup, Reps int
	// Root is the broadcast root.
	Root int
	// EagerLimit overrides the engine's eager/rendezvous threshold
	// (0 = engine default, negative = rendezvous only).
	EagerLimit int
	// Stat selects the statistic reported to the tuner (default
	// StatTrimmed).
	Stat Stat
	// Timeout bounds one measurement's wall-clock (default
	// DefaultTimeout).
	Timeout time.Duration
	// Executor selects the engine's rank-execution substrate (default
	// engine.Goroutine). engine.Pooled bounds the runnable ranks to a
	// cooperative worker pool, which is what keeps large-np grids (p in
	// the hundreds) measurable instead of OS-scheduler noise.
	Executor engine.ExecPolicy
	// MaxWorkers bounds the pooled executor's worker count
	// (0 = GOMAXPROCS; pooled executor only).
	MaxWorkers int
	// Transport selects the engine's point-to-point substrate by name
	// (transport.ChanName — the default when empty — or
	// transport.UDPName, which routes every message through a loopback
	// UDP socket; see internal/transport). Each measurement boots its
	// own transport and closes it with the world.
	Transport string
	// Log, when non-nil, receives the raw samples of every measurement.
	Log *SampleLog
}

// Describe names the effective measurement substrate and protocol after
// defaulting — executor with its worker clamp applied, transport, warmup
// and repetition counts, statistic — for a table's provenance. It is
// built from what a Measure call will actually use, so it cannot drift
// from the protocol run.
func (m EngineMeasurer) Describe() string {
	m = m.fill()
	stat, _ := ParseStat(string(m.Stat)) // a bad one fails every Measure call
	return fmt.Sprintf("on the real engine (exec %s, transport %s, warmup %d, reps %d, stat %s)",
		engine.ExecLabel(m.Executor, m.MaxWorkers), m.Transport, m.Warmup, m.Reps, stat)
}

func (m EngineMeasurer) fill() EngineMeasurer {
	if m.Warmup < 0 {
		m.Warmup = 0
	} else if m.Warmup == 0 {
		m.Warmup = DefaultWarmup
	}
	if m.Reps <= 0 {
		m.Reps = DefaultReps
	}
	if m.Timeout <= 0 {
		m.Timeout = DefaultTimeout
	}
	if m.Transport == "" {
		m.Transport = transport.ChanName
	}
	return m
}

// Env implements tune.Measurer. The environment is derived from the
// realized topology map, exactly as a runtime broadcast over that map
// would present it. As with tune.SimMeasurer, an invalid Place cannot be
// reported through this signature: the environment degrades to (Bytes,
// Procs) and the underlying error surfaces from the next Measure call.
func (m EngineMeasurer) Env(p, n int) tune.Env {
	topo, err := m.Place.Map(p)
	if err != nil {
		return tune.Env{Bytes: n, Procs: p}
	}
	return tune.EnvOf(n, p, topo)
}

// Measure implements tune.Measurer: it executes the candidate's registry
// row (resolved by name, through RunDecision like any broadcast) and
// returns the selected robust statistic over the timed repetitions.
func (m EngineMeasurer) Measure(c tune.Candidate, p, n int) (float64, error) {
	m = m.fill()
	// An unknown statistic must fail here, not silently measure as the
	// default while the sample log and provenance record the bogus name.
	stat, err := ParseStat(string(m.Stat))
	if err != nil {
		return 0, err
	}
	samples, err := m.run(tune.Decision{Algorithm: c.Name, SegSize: c.SegSize}, p, n)
	if err != nil {
		return 0, fmt.Errorf("measure: %q at (p=%d, n=%d): %w", c.Name, p, n, err)
	}
	sum, err := Summarize(samples)
	if err != nil {
		return 0, err
	}
	sec := stat.Of(sum)
	if m.Log != nil {
		m.Log.Add(Record{
			Algorithm: c.Name,
			SegSize:   c.SegSize,
			Procs:     p,
			Bytes:     n,
			Placement: m.Place.String(),
			Warmup:    m.Warmup,
			Reps:      m.Reps,
			Stat:      string(stat),
			Exec:      engine.ExecLabel(m.Executor, m.MaxWorkers),
			Transport: m.Transport,
			Seconds:   sec,
			Samples:   samples,
			Summary:   sum,
		})
	}
	return sec, nil
}

// run executes warmup + reps broadcasts on a fresh world and returns one
// sample per timed repetition: the slowest rank's time for that
// repetition. Every repetition starts from a barrier, so ranks begin
// together and the maximum over ranks measures the collective's global
// completion — per-rank completion times differ (the root finishes its
// sends before leaves finish receiving), and timing only the root would
// systematically favor root-early algorithms.
func (m EngineMeasurer) run(d tune.Decision, p, n int) ([]float64, error) {
	if p <= 0 {
		return nil, fmt.Errorf("bad process count %d", p)
	}
	if n < 0 {
		return nil, fmt.Errorf("bad message size %d", n)
	}
	if _, ok := collective.Lookup(d.Algorithm); !ok {
		return nil, fmt.Errorf("unknown algorithm (registered: %v)", collective.Names())
	}
	topo, err := m.Place.Map(p)
	if err != nil {
		return nil, err
	}
	trans, err := transport.New(m.Transport, p)
	if err != nil {
		return nil, err
	}
	defer trans.Close()
	w, err := engine.NewWorld(engine.Options{
		NP:         p,
		Topology:   topo,
		EagerLimit: m.EagerLimit,
		Timeout:    m.Timeout,
		Executor:   m.Executor,
		MaxWorkers: m.MaxWorkers,
		Transport:  trans,
	})
	if err != nil {
		return nil, err
	}

	// perRank[r] is written only by rank r's goroutine and read after
	// Run returns.
	perRank := make([][]float64, p)
	err = w.Run(func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == m.Root {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		times := make([]float64, m.Reps)
		for it := 0; it < m.Warmup+m.Reps; it++ {
			if err := collective.Barrier(c); err != nil {
				return err
			}
			start := time.Now()
			if err := collective.RunDecision(c, buf, m.Root, d); err != nil {
				return err
			}
			if it >= m.Warmup {
				times[it-m.Warmup] = time.Since(start).Seconds()
			}
		}
		perRank[c.Rank()] = times
		return nil
	})
	if err != nil {
		return nil, err
	}

	samples := make([]float64, m.Reps)
	for rep := range samples {
		for r := 0; r < p; r++ {
			if t := perRank[r][rep]; t > samples[rep] {
				samples[rep] = t
			}
		}
	}
	return samples, nil
}

// Factory returns the measurer-factory closure tune.AutoTune expects,
// rebinding a copy of m to each swept placement (the zero placement of a
// sweep without placements: a single node).
func (m EngineMeasurer) Factory() func(tune.Placement) tune.Measurer {
	return func(pl tune.Placement) tune.Measurer {
		mm := m
		mm.Place = pl
		return mm
	}
}
