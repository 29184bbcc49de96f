package main

import (
	"runtime"
	"time"

	"repro/internal/bufpool"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/tune"
)

// The micro-timings price one public call of one layer in isolation.
// Their iteration counts are fixed and small: they feed the per-layer
// ledger, which has no regression bound, and the timed phases of the
// workload itself are what fill the run's wall-clock budget.

const microBatches = 15

// perOp times fn in microBatches batches of batch calls and returns the
// median cost of one call.
func perOp(batch int, fn func()) time.Duration {
	per := make([]float64, microBatches)
	for i := range per {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		per[i] = float64(time.Since(t0)) / float64(batch)
	}
	return time.Duration(median(per))
}

// sink keeps the tuner micro-timings' results alive.
var sink tune.Decision

func decideNs(t tune.Tuner, e tune.Env) float64 {
	return float64(perOp(4096, func() { sink = t.Decide(e) }))
}

// sixteenRules is a tuning table whose matching rule is its last, so a
// lookup walks all sixteen: the worst case of a table of the size
// bcastbench -autotune emits.
func sixteenRules(e tune.Env) tune.TableTuner {
	t := &tune.Table{}
	for i := 0; i < 15; i++ {
		t.Rules = append(t.Rules, tune.Rule{MinProcs: e.Procs + 1 + i, Decision: tune.Decision{Algorithm: tune.Binomial}})
	}
	t.Rules = append(t.Rules, tune.Rule{Decision: tune.MPICH3{Tuned: true}.Decide(e)})
	return tune.TableTuner{Table: t}
}

func poolGetReleaseNs(n int) float64 {
	return float64(perOp(4096, func() { bufpool.Get(n).Release() }))
}

// memcpyMBps is the no-runtime floor of a broadcast: one thread copying
// the message into each of the other ranks' buffers with plain copy.
func memcpyMBps(src []byte, dsts [][]byte) float64 {
	d := perOp(max(1, (8<<20)/(len(src)*len(dsts))), func() {
		for _, dst := range dsts {
			copy(dst, src)
		}
	})
	return float64(len(src)*len(dsts)) / d.Seconds() / 1e6
}

// pingPong returns the median round trip of n-byte messages between
// ranks 0 and 1 of a fresh world. With depth > 0 a third rank first
// parks that many unexpected eager messages in rank 0's arrival queue,
// so every receive of the timed loop has to match past them.
func pingPong(opts engine.Options, n, batch, depth int) (time.Duration, error) {
	opts.NP = 2
	if depth > 0 {
		opts.NP = 3
		opts.EagerCredits = -1 // the flood must not block on flow control
	}
	opts.Timeout = runTimeout
	w, err := engine.NewWorld(opts)
	if err != nil {
		return 0, err
	}
	const tagPing, tagPong, tagFlood, tagFlooded = 1, 2, 3, 4
	per := make([]float64, microBatches)
	err = w.Run(func(c mpi.Comm) error {
		buf := make([]byte, n)
		switch c.Rank() {
		case 0:
			if depth > 0 {
				// Non-overtaking order: once this arrives, the flood has.
				if _, err := c.Recv(nil, 2, tagFlooded); err != nil {
					return err
				}
			}
			for i := range per {
				t0 := time.Now()
				for j := 0; j < batch; j++ {
					if err := c.Send(buf, 1, tagPing); err != nil {
						return err
					}
					if _, err := c.Recv(buf, 1, tagPong); err != nil {
						return err
					}
				}
				per[i] = float64(time.Since(t0)) / float64(batch)
			}
			for i := 0; i < depth; i++ {
				if _, err := c.Recv(buf[:0], 2, tagFlood); err != nil {
					return err
				}
			}
		case 1:
			for i := 0; i < microBatches*batch; i++ {
				if _, err := c.Recv(buf, 0, tagPing); err != nil {
					return err
				}
				if err := c.Send(buf, 0, tagPong); err != nil {
					return err
				}
			}
		case 2:
			for i := 0; i < depth; i++ {
				if err := c.Send(nil, 0, tagFlood); err != nil {
					return err
				}
			}
			return c.Send(nil, 0, tagFlooded)
		}
		return nil
	})
	return time.Duration(median(per)), err
}

// udpMicro times the transport alone on a two-rank loopback world: the
// 1 KiB round trip, the rate of a one-way stream of 1 MiB messages, and
// how long Close takes to drain afterwards.
func udpMicro() (pingPongRT time.Duration, streamMBps float64, closeDur time.Duration, err error) {
	tr, err := transport.SelfUDP(2)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		t0 := time.Now()
		if cerr := tr.Close(); err == nil {
			err = cerr
		}
		closeDur = time.Since(t0)
	}()
	if pingPongRT, err = pingPong(engine.Options{Transport: tr}, 1<<10, 64, 0); err != nil {
		return
	}
	const msgs, size = 24, 1 << 20
	w, err := engine.NewWorld(engine.Options{NP: 2, Transport: tr, Timeout: runTimeout})
	if err != nil {
		return
	}
	var elapsed time.Duration
	err = w.Run(func(c mpi.Comm) error {
		buf := make([]byte, size)
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			if c.Rank() == 0 {
				if err := c.Send(buf, 1, 1); err != nil {
					return err
				}
			} else if _, err := c.Recv(buf, 0, 1); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			elapsed = time.Since(t0)
		}
		return nil
	})
	streamMBps = float64(msgs*size) / elapsed.Seconds() / 1e6
	return
}

// worldBootUs is the median cost of booting a bare engine world of np
// ranks: NewWorld plus the first, empty Run.
func worldBootUs(np int) (float64, error) {
	var err error
	d := perOp(1, func() {
		w, e := engine.NewWorld(engine.Options{NP: np})
		if e == nil {
			e = w.Run(func(mpi.Comm) error { return nil })
		}
		if e != nil {
			err = e
		}
	})
	return float64(d) / 1e3, err
}

// planUs is the median cost of collective.NewPlan for the shape, timed
// on rank 0 of a chan world; programGenUs is the cost of generating the
// decided algorithm's schedule alone (0 when it has none).
func planUs(w workload) (plan, programGen float64, err error) {
	o := collective.Options{Algorithm: w.algo, SegSize: w.seg}
	if w.algo == "" {
		o.Tuner = tune.MPICH3{Tuned: true}
	}
	var dec tune.Decision
	err = engine.Run(w.np, func(c mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		var perr error
		d := perOp(1, func() {
			p, e := collective.NewPlan(c, w.size, 0, o)
			if e != nil {
				perr = e
				return
			}
			dec = p.Decision()
		})
		plan = float64(d) / 1e3
		return perr
	})
	if err != nil {
		return
	}
	if reg, ok := collective.Lookup(dec.Algorithm); ok && reg.Program != nil {
		d := perOp(1, func() {
			if _, e := reg.Program(w.np, 0, w.size, dec.SegSize); e != nil {
				err = e
			}
		})
		programGen = float64(d) / 1e3
	}
	return
}

// parallelism is how many ranks can make progress at once: the model's
// divisor for work that every rank shares.
func parallelism(np int) int { return min(runtime.GOMAXPROCS(0), np) }
