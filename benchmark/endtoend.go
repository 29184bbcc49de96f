package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// A run times cold set-ups until it has maxSetups of them or has spent
// setupShare of its measuring time on them, and at least minSetups;
// setup_s is their median.
const (
	minSetups  = 9
	maxSetups  = 501
	setupShare = 0.10
)

// warmRounds precede every timed phase.
const warmRounds = 3

// tally counts broadcasts over a whole process run.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) add(m *measured) {
	t.attempted += m.attempted
	t.failed += m.failed
}

// fail records a run that returned an error: its broadcasts are lost, and
// it counts as one failed attempt.
func (t *tally) fail() {
	t.attempted++
	t.failed++
}

// bench holds what every phase of one workload process shares: the
// per-rank buffers (allocated once, so set-up times exclude them and
// variants of the shape reuse them) and the seeded payload.
type bench struct {
	w      workload
	seed   int64
	outDir string // where the traced run writes its span files
	bufs   [][]byte
	pay    *payload
	tally

	algo string // what the shape's dispatch decides, noted by the traced run
	seg  int
}

func newBench(w workload, seed int64, outDir string) *bench {
	b := &bench{w: w, seed: seed, outDir: outDir, pay: newPayload(seed, w.size, w.stampStride())}
	b.bufs = make([][]byte, w.np)
	for r := range b.bufs {
		b.bufs[r] = make([]byte, w.size)
	}
	copy(b.bufs[0], b.pay.base)
	return b
}

// outcome is what one session saw, beyond the measured phases.
type outcome struct {
	*measured
	elapsed       time.Duration    // open to close
	closeDur      time.Duration    // the close alone
	before, after metrics.Snapshot // with phases.counters only
}

// session opens shape, runs the phases on it, closes it, and does the
// full byte compare of the last round. The elapsed time covers open to
// close: the buffers already exist and the byte compare happens after
// the clock stops. A failure of any step is counted and returned; the
// caller decides whether the run can go on.
func (b *bench) session(shape workload, rec *recorder, ph phases) (*outcome, error) {
	t0 := time.Now()
	s, err := open(shape, b.seed, rec)
	if err != nil {
		b.fail()
		return nil, err
	}
	o := &outcome{}
	if ph.counters {
		o.before = s.snapshot()
	}
	o.measured, err = s.measure(b.bufs, b.pay, ph)
	if ph.counters && err == nil {
		o.after = s.snapshot()
	}
	t1 := time.Now()
	if cerr := s.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", shape.name, cerr)
	}
	o.elapsed, o.closeDur = time.Since(t0), time.Since(t1)
	if err != nil {
		b.fail()
		return nil, err
	}
	if wrong := verify(b.bufs, b.pay, o.attempted-1); wrong > 0 {
		o.failed++
	}
	b.add(o.measured)
	return o, nil
}

// coldSetup is the phase list of one cold set-up: boot on the first Run,
// BcastInit or first Bcast, three warm-up rounds.
var coldSetup = phases{warm: 1 + warmRounds}

// endToEnd is the untraced run: the cold set-ups, then w.sessions
// measuring sessions that share the time budget equally, each a fresh
// boot whose budget is split evenly between the latency and the
// throughput phase.
//
// Every session yields a median latency sample and a median block
// goodput. The run reports the best session of each: the lowest median
// latency and the highest median goodput. On the shared two-core
// reference host the slowdowns come and go in spells of seconds to a
// minute (another tenant, where the hypervisor put the two vCPUs) and
// with where a boot's structures land in memory; they only ever slow a
// session down, so the best session is the steadiest estimate of what
// the code costs. README.md has the calibration behind this choice.
func (b *bench) endToEnd(seconds float64) (map[string]metric, error) {
	w := b.w
	var setups []float64
	setupStart := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(setupStart).Seconds() < setupShare*seconds) {
		o, err := b.session(w, nil, coldSetup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, o.elapsed.Seconds())
	}

	half := time.Duration(seconds / float64(w.sessions) / 2 * float64(time.Second))
	var p50s, goodputs, all []float64
	for i := 0; i < w.sessions; i++ {
		o, err := b.session(w, nil, phases{warm: warmRounds, latFor: half, thrFor: half})
		if err != nil {
			return nil, err
		}
		if len(o.latUs) == 0 || len(o.blockMBps) == 0 {
			b.fail()
			return nil, fmt.Errorf("%s: no samples in %.3g s", w.name, seconds)
		}
		p50s = append(p50s, median(o.latUs))
		goodputs = append(goodputs, median(o.blockMBps))
		all = append(all, o.latUs...)
	}
	pct, tailUs := tail(all)
	fmt.Printf("%s: %d cold set-ups; %d sessions, %d latency samples in all (p%.4g = %.1f us), throughput in blocks of %d rounds\n",
		w.name, len(setups), w.sessions, len(all), pct, tailUs, w.block)
	fmt.Printf("  session median latency, us:   %.4g  (median of sessions %.6g)\n", p50s, median(p50s))
	fmt.Printf("  session median goodput, MB/s: %.4g  (median of sessions %.6g)\n", goodputs, median(goodputs))
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"bcast_p50_us": {slices.Min(p50s), "us"},
		"goodput_MBps": {slices.Max(goodputs), "MB/s"},
		"peak_rss_MB":  {peakRSSMB(), "MB"},
	}, nil
}

// peakRSSMB is the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM), read through getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
