package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// phases says what one measuring Run does after binding the buffers.
// Both timed phases run for a wall-clock budget, not a round count: rank
// 0 watches the clock and the ranks agree to stop at a barrier (see
// measure).
type phases struct {
	warm   int           // untimed rounds first
	latFor time.Duration // latency phase budget; 0 skips it
	thrFor time.Duration // throughput phase budget; 0 skips it

	memStats bool // bracket the throughput phase with runtime.ReadMemStats
	counters bool // the session snapshots the stack's counters before and after the Run
	// corrupt, when set, is called on every rank after each round's
	// timed section and before its check; the tests use it to prove the
	// checker counts a flipped byte.
	corrupt func(rank, round int, buf []byte)
}

// measured is what one measuring Run saw.
type measured struct {
	latUs     []float64 // latency phase: per round, the slowest rank's broadcast
	blockMBps []float64 // throughput phase: goodput of each block of back-to-back rounds
	attempted int       // broadcasts issued, warm-up included
	failed    int       // broadcasts on which some rank's stamp check failed
	barriers  int       // barriers the phases added around the broadcasts

	thrRounds  int // broadcasts inside the throughput phase
	mallocs    uint64
	allocBytes uint64
}

// measure runs the phases on a booted-or-bootable stack in a single Run.
//
// Latency phase (the internal/measure protocol): root restamps, all
// ranks meet at a barrier, each rank times its own broadcast into a
// preallocated slice, and checks the stamps after the timed section.
// One sample is the slowest rank of the round.
//
// Throughput phase: blocks of w.block back-to-back rounds with no
// barrier inside, each bracketed by barriers; rank 0 times the block.
//
// Stopping is decided by rank 0 alone, before it enters a barrier: it
// publishes that barrier's ordinal in stopAt, and every rank leaving a
// barrier compares the published ordinal with its own. No rank can leave
// a barrier before rank 0 has entered it, so all ranks see the decision;
// ordinals only grow, so a rank that reads a later decision just keeps
// going until it reaches that barrier itself.
func (s *stack) measure(bufs [][]byte, pay *payload, ph phases) (*measured, error) {
	w := s.w
	lat := make([][]uint32, w.np)
	bad := make([][]int, w.np)
	var blocks []time.Duration
	var stopAt atomic.Int64
	var ms0, ms1 runtime.MemStats
	m := &measured{}

	err := s.run(func(r *rank) error {
		buf := bufs[r.id]
		root := r.id == 0
		if err := r.bind(buf); err != nil {
			return err
		}
		round := 0
		check := func() {
			if ph.corrupt != nil {
				ph.corrupt(r.id, round, buf)
			}
			if !pay.stamped(buf, round) {
				bad[r.id] = append(bad[r.id], round)
			}
			round++
		}
		for i := 0; i < ph.warm; i++ {
			if root {
				pay.stamp(buf, round)
			}
			if err := r.bcast(buf, round); err != nil {
				return err
			}
			check()
		}

		barriers := int64(0)
		if ph.latFor > 0 {
			samples := make([]uint32, 0, w.latCap)
			start := time.Now()
			for {
				barriers++
				if root {
					if len(samples) == w.latCap || time.Since(start) >= ph.latFor {
						stopAt.Store(barriers)
					} else {
						pay.stamp(buf, round)
					}
				}
				if err := r.barrier(round); err != nil {
					return err
				}
				if stopAt.Load() == barriers {
					break
				}
				t0 := time.Now()
				if err := r.bcast(buf, round); err != nil {
					return err
				}
				samples = append(samples, uint32(min(time.Since(t0), math.MaxUint32)))
				check()
			}
			lat[r.id] = samples
		}

		if ph.thrFor > 0 {
			barriers++ // the opening barrier is never a stopping point
			if err := r.barrier(round); err != nil {
				return err
			}
			if root && ph.memStats {
				runtime.ReadMemStats(&ms0)
			}
			first := round
			start := time.Now()
			for {
				t0 := time.Now()
				for j := 0; j < w.block; j++ {
					if root {
						pay.stamp(buf, round)
					}
					if err := r.bcast(buf, round); err != nil {
						return err
					}
					check()
				}
				barriers++
				if root && time.Since(start) >= ph.thrFor {
					stopAt.Store(barriers)
				}
				if err := r.barrier(round); err != nil {
					return err
				}
				if root {
					blocks = append(blocks, time.Since(t0))
				}
				if stopAt.Load() == barriers {
					break
				}
			}
			if root {
				if ph.memStats {
					runtime.ReadMemStats(&ms1)
				}
				m.thrRounds = round - first
			}
		}
		if root {
			m.attempted = round
			m.barriers = int(barriers)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}

	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if n := len(lat[0]); n > 0 {
		m.latUs = make([]float64, n)
		for i := range m.latUs {
			var slowest uint32
			for r := range lat {
				slowest = max(slowest, lat[r][i])
			}
			m.latUs[i] = float64(slowest) / 1e3
		}
	}
	for _, d := range blocks {
		m.blockMBps = append(m.blockMBps, float64(w.size)*float64(w.block)/d.Seconds()/1e6)
	}
	failedRounds := map[int]bool{}
	for _, rounds := range bad {
		for _, round := range rounds {
			failedRounds[round] = true
		}
	}
	m.failed = len(failedRounds)
	return m, nil
}

// verify is the full byte compare of every rank's buffer against the
// exact message of the given round; it returns how many ranks differ.
func verify(bufs [][]byte, pay *payload, round int) int {
	img := pay.image(round)
	wrong := 0
	for _, buf := range bufs {
		if !bytes.Equal(buf, img) {
			wrong++
		}
	}
	return wrong
}

// median of xs; 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail is the highest percentile of xs that still has at least ten
// samples beyond it, and its value: the most the sample count supports.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 20 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx]
}
