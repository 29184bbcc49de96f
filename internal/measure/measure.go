package measure

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
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

// EngineMeasurer measures decisions by executing them on the real
// in-process engine (internal/engine): every Measure call boots a fresh
// engine.World over the topology it is given, runs the decision's
// registered implementation on the configured rank-execution substrate
// (Executor/MaxWorkers), and times repetitions between barriers. It
// implements tune.Measurer.
//
// Unlike bench.SimMeasurer this measures wall-clock time on the host
// actually running the broadcast, so results are machine-dependent and
// noisy; Warmup, Reps and Stat control the protocol that tames the
// noise. The zero value measures with the default protocol.
type EngineMeasurer struct {
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

// Measure implements tune.Measurer: it executes the decision's registry
// row over topo (resolved by name, through a rank's collective.Calls like
// a facade Comm.Bcast) and returns the selected robust statistic over the
// timed repetitions.
func (m EngineMeasurer) Measure(d tune.Decision, topo *topology.Map, n int) (float64, error) {
	m = m.fill()
	// An unknown statistic must fail here, not silently measure as the
	// default while the sample log and provenance record the bogus name.
	stat, err := ParseStat(string(m.Stat))
	if err != nil {
		return 0, err
	}
	p := topo.NP()
	samples, err := m.run(d, topo, n)
	if err != nil {
		return 0, fmt.Errorf("measure: %q at (p=%d, n=%d): %w", d.Algorithm, p, n, err)
	}
	sum, err := Summarize(samples)
	if err != nil {
		return 0, err
	}
	sec := stat.Of(sum)
	if m.Log != nil {
		m.Log.Add(Record{
			Algorithm: d.Algorithm,
			SegSize:   d.SegSize,
			Procs:     p,
			Bytes:     n,
			Placement: tune.Placement{Kind: topo.Kind(), CoresPerNode: topo.MaxCoresPerNode()}.String(),
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
// systematically favor root-early algorithms. Each rank times its
// broadcasts through one collective.Calls, as a facade Comm.Bcast does,
// so the warmup binds the decision's Plan and the timed repetitions reuse
// it.
func (m EngineMeasurer) run(d tune.Decision, topo *topology.Map, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("bad message size %d", n)
	}
	if _, ok := collective.Lookup(d.Algorithm); !ok {
		return nil, fmt.Errorf("unknown algorithm (registered: %v)", collective.Names())
	}
	p := topo.NP()
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
	o := collective.Options{Algorithm: d.Algorithm, SegSize: d.SegSize}
	err = w.Run(func(c mpi.Comm) error {
		var calls collective.Calls
		defer calls.Release()
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
			if err := calls.Broadcast(c, buf, m.Root, o); err != nil {
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
