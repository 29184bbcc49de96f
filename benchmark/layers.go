package main

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/tune"
)

// spanCap is the per-rank capacity of the program's own span rings in
// the traced run.
const spanCap = 4096

// lifecycleReps is how many cold lifecycles the traced run times.
const lifecycleReps = 9

// layerReps is how many sessions price one variant of the shape.
const layerReps = 3

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// pctOver is how far a lies above b, in percent of b.
func pctOver(a, b float64) float64 { return 100 * (a/b - 1) }

func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// barrierMessages is the traffic of one dissemination barrier on np
// ranks: every rank sends one empty message per round.
func barrierMessages(np int) int { return np * ceilLog2(np) }

// perLayer is the traced run. It measures the workload again in short
// sessions, each differing from the shape in exactly one toggle, so that
// the difference prices one layer; takes the counters of a traced
// session as deltas per broadcast; times each layer's public calls at
// the workload's own sizes; and closes with the budget model. Every
// session's share of the wall-clock budget is a fixed fraction of
// seconds, so the whole run lasts about as long as the untraced one.
func (b *bench) perLayer(seconds float64) (map[string]metric, error) {
	w := b.w
	v := map[string]float64{}
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	rec := newRecorder(w.np)

	if err := b.lifecycle(rec, v); err != nil {
		return nil, err
	}

	// The untraced reference every ratio below is taken against. Like
	// every figure of this run that is a time or a rate, it is the best
	// of layerReps short sessions, the same rule the end-to-end run
	// applies to its sessions.
	var refLat []float64
	var ref *outcome
	refP50, refGoodput := math.Inf(1), 0.0
	for i := 0; i < layerReps; i++ {
		o, err := b.session(w, nil, phases{warm: warmRounds, latFor: share(0.10 / layerReps), thrFor: share(0.10 / layerReps), memStats: true})
		if err != nil {
			return nil, err
		}
		if len(o.latUs) == 0 || len(o.blockMBps) == 0 {
			b.fail()
			return nil, fmt.Errorf("%s: no samples in %.3g s", w.name, seconds)
		}
		refP50, refGoodput = min(refP50, median(o.latUs)), max(refGoodput, median(o.blockMBps))
		refLat = append(refLat, o.latUs...)
		ref = o
	}
	v["budget.p50_us"] = refP50
	v["bcast.tail_pct"], v["bcast.tail_us"] = tail(refLat)
	v["engine.allocs_per_bcast"] = float64(ref.mallocs) / float64(ref.thrRounds)
	v["engine.alloc_bytes_per_bcast"] = float64(ref.allocBytes) / float64(ref.thrRounds)

	// p50 and goodput price one variant of the shape: the lowest session
	// median latency, or the highest session median goodput, of layerReps
	// sessions sharing the fraction f of the run's budget.
	p50 := func(shape workload, rec *recorder, f float64) (float64, *outcome, error) {
		best, last := math.Inf(1), (*outcome)(nil)
		for i := 0; i < layerReps; i++ {
			o, err := b.session(shape, rec, phases{warm: warmRounds, latFor: share(f / layerReps)})
			if err != nil {
				return 0, nil, err
			}
			best, last = min(best, median(o.latUs)), o
		}
		return best, last, nil
	}
	goodput := func(shape workload, f float64) (float64, error) {
		best := 0.0
		for i := 0; i < layerReps; i++ {
			o, err := b.session(shape, nil, phases{warm: warmRounds, thrFor: share(f / layerReps)})
			if err != nil {
				return 0, err
			}
			best = max(best, median(o.blockMBps))
		}
		return best, nil
	}

	// Traced: benchmark-side spans, the program's span rings and traffic
	// tracing all on. The latency session gives the tracing overhead, the
	// throughput session the counters (it has one barrier per block, not
	// one per round, and those are subtracted exactly).
	traced := w
	traced.spans, traced.traffic = spanCap, true
	tracedP50, _, err := p50(traced, rec, 0.09)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_pct"] = pctOver(tracedP50, refP50)
	counted, err := b.session(traced, rec, phases{warm: warmRounds, thrFor: share(0.06), counters: true})
	if err != nil {
		return nil, err
	}
	optBytes := perBroadcast(w, counted, v)

	// The paper's claim: the enclosed ring at the same shape moves more
	// bytes and is slower. A fixed eight rounds with no barrier make the
	// byte count exact.
	native := w
	native.native = true
	nativeGoodput, err := goodput(native, 0.09)
	if err != nil {
		return nil, err
	}
	v["collective.native_over_opt"] = refGoodput / nativeGoodput
	native.traffic = true
	nc, err := b.session(native, nil, phases{warm: 8, counters: true})
	if err != nil {
		return nil, err
	}
	nativeBytes := float64(nc.after.Traffic.Bytes-nc.before.Traffic.Bytes) / float64(nc.attempted)
	v["collective.saved_bytes_pct"] = 100 * (nativeBytes - optBytes) / nativeBytes

	pooled := w
	pooled.pooled = true
	pooledGoodput, err := goodput(pooled, 0.06)
	if err != nil {
		return nil, err
	}
	v["engine.pooled_over_goroutine"] = pooledGoodput / refGoodput

	spansOnly := w
	spansOnly.spans = spanCap
	spansP50, _, err := p50(spansOnly, nil, 0.06)
	if err != nil {
		return nil, err
	}
	v["metrics.spans_overhead_pct"] = pctOver(spansP50, refP50)

	// The facade's two call styles against each other, and the facade
	// against the bare collective. Neither applies to a bare workload.
	bareP50 := refP50
	if w.style != bareCall {
		other := w
		other.style = perCall + persistentCall - w.style
		otherP50, _, err := p50(other, nil, 0.06)
		if err != nil {
			return nil, err
		}
		if w.style == perCall {
			v["bcast.percall_minus_persistent_us"] = refP50 - otherP50
		} else {
			v["bcast.percall_minus_persistent_us"] = otherP50 - refP50
		}
		bare := w
		bare.style = bareCall
		if bareP50, _, err = p50(bare, nil, 0.06); err != nil {
			return nil, err
		}
	}
	v["collective.bare_p50_us"] = bareP50
	program := w
	program.style, program.program = bareCall, true
	programP50, _, err := p50(program, nil, 0.06)
	if err != nil {
		return nil, err
	}
	v["collective.exec_program_over_handwritten"] = programP50 / bareP50

	// The same shape on the other substrate.
	swapped := w
	if w.transport == "" {
		swapped.transport = transport.UDPName
	} else {
		swapped.transport, swapped.drop = "", 0
	}
	swappedP50, so, err := p50(swapped, nil, 0.06)
	if err != nil {
		return nil, err
	}
	if w.transport == "" {
		v["transport.udp_over_chan"] = swappedP50 / refP50
		v["transport.close_drain_ms"] = us(so.closeDur) / 1e3
	} else {
		v["transport.udp_over_chan"] = refP50 / swappedP50
		v["transport.close_drain_ms"] = us(ref.closeDur) / 1e3
	}

	if err := b.micro(v); err != nil {
		b.fail()
		return nil, err
	}
	b.budget(v)

	if err := b.writeTraces(rec, counted.after); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, def := range perLayerMetrics {
		out[def.name] = metric{v[def.name], def.unit}
	}
	return out, nil
}

// lifecycleTimes collects, in microseconds, the calls one cluster's life
// consists of.
type lifecycleTimes struct {
	build, firstRun, relaunch, init, snapshot, close []float64
}

// lifecycle times those calls one by one over lifecycleReps cold
// lifecycles, with the benchmark-side spans on. For a bare workload the
// engine's equivalents stand in for the facade's.
func (b *bench) lifecycle(rec *recorder, v map[string]float64) error {
	var lt lifecycleTimes
	for i := 0; i < lifecycleReps; i++ {
		if err := b.lifecycleOnce(rec, &lt); err != nil {
			b.fail()
			return fmt.Errorf("%s: lifecycle: %w", b.w.name, err)
		}
	}
	v["bcast.new_cluster_us"] = median(lt.build)
	v["bcast.first_run_us"] = median(lt.firstRun)
	v["bcast.relaunch_us"] = median(lt.relaunch)
	v["bcast.init_us"] = median(lt.init)
	v["bcast.close_us"] = median(lt.close)
	v["metrics.snapshot_us"] = median(lt.snapshot)
	return nil
}

// lifecycleOnce is one cold lifecycle: build, first Run (the boot),
// relaunch on the booted world, BcastInit (or, for the styles without a
// handle, the first broadcast, checked), Metrics, Close.
func (b *bench) lifecycleOnce(rec *recorder, lt *lifecycleTimes) error {
	lap := func(into *[]float64, f func() error) error {
		t := time.Now()
		err := f()
		*into = append(*into, us(time.Since(t)))
		return err
	}
	var s *stack
	if err := lap(&lt.build, func() (err error) { s, err = open(b.w, b.seed, rec); return err }); err != nil {
		return err
	}
	b.algo, b.seg = s.decision()
	idle := func(*rank) error { return nil }
	err := lap(&lt.firstRun, func() error { return s.run(idle) })
	if err == nil {
		err = lap(&lt.relaunch, func() error { return s.run(idle) })
	}
	if err == nil {
		err = s.run(func(r *rank) error {
			buf := b.bufs[r.id]
			if r.id == 0 {
				b.pay.stamp(buf, 0)
			}
			t := time.Now()
			if err := r.bind(buf); err != nil {
				return err
			}
			if r.ph == nil {
				if err := r.bcast(buf, 0); err != nil {
					return err
				}
				if !b.pay.stamped(buf, 0) {
					return fmt.Errorf("rank %d: first broadcast delivered the wrong stamps", r.id)
				}
			}
			if r.id == 0 {
				lt.init = append(lt.init, us(time.Since(t)))
			}
			return nil
		})
		if err == nil && b.w.style != persistentCall {
			b.attempted++
		}
	}
	if err == nil {
		err = lap(&lt.snapshot, func() error { s.snapshot(); return nil })
	}
	if cerr := lap(&lt.close, s.close); err == nil {
		err = cerr
	}
	return err
}

// perBroadcast turns the counter deltas of a traced session into
// per-broadcast figures, after taking out the session's barriers: each
// is np*ceil(log2 np) empty eager messages, and one datagram apiece on a
// wired world. It returns the traced payload bytes per broadcast.
func perBroadcast(w workload, o *outcome, v map[string]float64) float64 {
	a, z := o.before, o.after
	rounds := float64(o.attempted)
	barrier := float64(o.barriers * barrierMessages(w.np))
	per := func(from, to int64, less float64) float64 { return (float64(to-from) - less) / rounds }

	v["collective.msgs_per_bcast"] = per(a.Traffic.Messages, z.Traffic.Messages, barrier)
	bytes := per(a.Traffic.Bytes, z.Traffic.Bytes, 0)
	v["collective.bytes_per_bcast"] = bytes

	v["engine.eager_sends_per_bcast"] = per(a.EagerSends, z.EagerSends, barrier)
	v["engine.rdv_sends_per_bcast"] = per(a.RdvSends, z.RdvSends, 0)
	v["engine.staged_bytes_per_bcast"] = per(a.StagedBytes, z.StagedBytes, 0)
	v["engine.parks_per_bcast"] = per(a.Parks, z.Parks, 0)
	v["engine.slot_waits_per_bcast"] = per(a.SlotWaits, z.SlotWaits, 0)
	v["engine.arrival_queue_max"] = float64(z.ArrivalQueueMax)
	v["engine.posted_queue_max"] = float64(z.PostedQueueMax)

	var gets, misses int64
	for _, c := range z.BufPool {
		gets, misses = gets+c.Gets, misses+c.Misses
	}
	for _, c := range a.BufPool {
		gets, misses = gets-c.Gets, misses-c.Misses
	}
	v["bufpool.gets_per_bcast"] = float64(gets) / rounds
	if gets > 0 {
		v["bufpool.miss_share"] = float64(misses) / float64(gets)
	}
	v["bufpool.oversize_gets_per_bcast"] = per(a.OversizeGets, z.OversizeGets, 0)

	datagrams := float64(z.WireDatagramsSent - a.WireDatagramsSent)
	if datagrams == 0 {
		return bytes // nothing crossed a wire: every transport.* counter stays 0
	}
	acks := float64(z.WireAcksSent - a.WireAcksSent)
	v["transport.datagrams_per_bcast"] = (datagrams - barrier) / rounds
	v["transport.acks_per_bcast"] = acks / rounds
	v["transport.wire_bytes_per_payload_byte"] = float64(z.WireBytesSent-a.WireBytesSent) / (bytes * rounds)
	v["transport.retx_share"] = float64(z.WireRetransmits-a.WireRetransmits) / datagrams
	v["transport.cwnd_halvings_per_bcast"] = per(a.WireCwndHalvings, z.WireCwndHalvings, 0)
	v["transport.cwnd_low_water"] = float64(z.WireCwndLowWater)
	v["transport.srtt_max_us"] = float64(z.WireSRTTMaxMicros)
	v["transport.rto_max_us"] = float64(z.WireRTOMaxMicros)
	// The transport counts sendmmsg calls but not single writes, so this
	// is data datagrams per batched write: an upper bound on datagrams
	// per write syscall, and 1 when the socket never batched.
	v["transport.datagrams_per_write_syscall"] = 1
	if batched := float64(z.WireBatchedWrites - a.WireBatchedWrites); batched > 0 {
		v["transport.datagrams_per_write_syscall"] = (datagrams - acks) / batched
	}
	return bytes
}

// sinkEnv keeps the EnvOf micro-timing's result alive.
var sinkEnv tune.Env

// micro runs the isolated timings of each layer's public calls, at the
// workload's own rank count and sizes.
func (b *bench) micro(v map[string]float64) error {
	w := b.w
	topo, err := w.topology()
	if err != nil {
		return err
	}
	env := tune.EnvOf(w.size, w.np, topo)
	v["tune.decide_ns"] = decideNs(tune.MPICH3{Tuned: true}, env)
	v["tune.table_decide_ns"] = decideNs(sixteenRules(env), env)
	v["tune.env_of_ns"] = float64(perOp(4096, func() { sinkEnv = tune.EnvOf(w.size, w.np, topo) }))

	v["bufpool.get_release_ns"] = poolGetReleaseNs(w.chunk())
	v["baseline.memcpy_MBps"] = memcpyMBps(b.pay.base, b.bufs[1:])

	if v["collective.plan_us"], v["core.program_gen_us"], err = planUs(w); err != nil {
		return err
	}
	if v["engine.world_boot_us"], err = worldBootUs(w.np); err != nil {
		return err
	}
	if v["collective.barrier_us"], err = b.barrierUs(); err != nil {
		return err
	}

	eager, err := pingPong(engine.Options{}, 1<<10, 256, 0)
	if err != nil {
		return err
	}
	behind64, err := pingPong(engine.Options{}, 1<<10, 256, 64)
	if err != nil {
		return err
	}
	// The rendezvous handshake alone: the same 1 KiB with eager off.
	rdv, err := pingPong(engine.Options{EagerLimit: -1}, 1<<10, 256, 0)
	if err != nil {
		return err
	}
	rdvMiB, err := pingPong(engine.Options{}, 1<<20, 8, 0)
	if err != nil {
		return err
	}
	v["engine.pingpong_eager_ns"] = float64(eager)
	v["engine.match_depth64_ns"] = float64(behind64)
	v["engine.pingpong_rdv_ns"] = float64(rdv)
	v["engine.rdv_copy_MBps"] = 2 * float64(1<<20) / rdvMiB.Seconds() / 1e6

	udpRT, stream, _, err := udpMicro()
	if err != nil {
		return err
	}
	v["transport.udp_pingpong_us"] = us(udpRT)
	v["transport.udp_stream_MBps"] = stream
	return nil
}

// barrierUs is the median cost of one barrier on the workload's own
// stack, timed on rank 0 in batches.
func (b *bench) barrierUs() (float64, error) {
	s, err := open(b.w, b.seed, nil)
	if err != nil {
		return 0, err
	}
	defer s.close()
	const batch = 16
	per := make([]float64, microBatches)
	err = s.run(func(r *rank) error {
		for i := range per {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				if err := r.barrier(-1); err != nil {
					return err
				}
			}
			if r.id == 0 {
				per[i] = us(time.Since(t0)) / batch
			}
		}
		return nil
	})
	return median(per), err
}

// criticalPathMessages is the model's count of messages that follow one
// another on the longest chain of the decided algorithm: tree depth,
// plus the ring's steps, plus the pipeline's fill.
func criticalPathMessages(algo string, np, size, seg int) int {
	depth := ceilLog2(np)
	segments := 1
	if seg > 0 {
		segments = max(1, (size+seg-1)/seg)
	}
	switch algo {
	case tune.Binomial:
		return depth
	case tune.ScatterRdb:
		return 2 * depth
	case tune.Chain:
		return np - 1 + segments - 1
	default: // the ring family: scatter, then np-1 steps, pipelined per chunk
		perChunk := max(1, (segments+np-1)/np)
		return depth + np - 1 + perChunk - 1
	}
}

// budget is a model, not a measurement: it prices the median broadcast
// from the per-layer figures above and reports what it cannot explain.
//
//	facade = facade p50 - bare collective p50
//	engine = per-message cost x max(critical-path messages, messages / parallelism)
//	copy   = traced bytes x copies per byte / (memcpy rate x parallelism)
//	wire   = datagrams x (UDP - chan one-way cost of a 1 KiB message)
//
// The per-message cost is half the 1 KiB ping-pong of the protocol the
// shape's chunks use; copies per byte are 2 staged, 1 rendezvous, 4 over
// the socket. The four rows plus the residue equal budget.p50_us.
func (b *bench) budget(v map[string]float64) {
	w := b.w
	p50 := v["budget.p50_us"]
	facade := max(0, p50-v["collective.bare_p50_us"])

	perMessage := v["engine.pingpong_eager_ns"] / 2
	copies := 2.0
	if w.chunk() > engine.DefaultEagerLimit {
		perMessage = v["engine.pingpong_rdv_ns"] / 2
		copies = 1
	}
	if v["transport.datagrams_per_bcast"] > 0 {
		copies = 4
	}
	par := float64(parallelism(w.np))
	chain := float64(criticalPathMessages(b.algo, w.np, w.size, b.seg))
	eng := perMessage / 1e3 * max(chain, v["collective.msgs_per_bcast"]/par)
	cp := v["collective.bytes_per_bcast"] * copies / (v["baseline.memcpy_MBps"] * par)
	perDatagram := max(0, v["transport.udp_pingpong_us"]-v["engine.pingpong_eager_ns"]/1e3) / 2
	wire := v["transport.datagrams_per_bcast"] * perDatagram
	residue := p50 - facade - eng - cp - wire

	v["budget.facade_us"], v["budget.engine_us"], v["budget.copy_us"], v["budget.wire_us"] = facade, eng, cp, wire
	v["budget.residue_pct"] = 100 * residue / p50

	fmt.Printf("budget model for %s (%s, %d-message chain), microseconds of the median broadcast:\n", w.name, b.algo, int(chain))
	for _, row := range []struct {
		name string
		us   float64
	}{{"facade", facade}, {"engine", eng}, {"copy", cp}, {"wire", wire}, {"residue", residue}} {
		fmt.Printf("  %-10s %12.2f  %6.1f%%\n", row.name, row.us, 100*row.us/p50)
	}
	fmt.Printf("  %-10s %12.2f  = budget.p50_us\n", "sum", facade+eng+cp+wire+residue)
}

// writeTraces exports the benchmark-side spans and, beside them, the
// program's own span rings from the traced session's snapshot.
func (b *bench) writeTraces(rec *recorder, snap metrics.Snapshot) error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	pid := 1
	for i, w := range workloads {
		if w.name == b.w.name {
			pid = i + 1
		}
	}
	path := filepath.Join(b.outDir, "trace-"+b.w.name+".json")
	if err := rec.writeChromeTrace(path, b.w.name, pid); err != nil {
		return err
	}
	if n := len(snap.Spans); n > maxTraceEvents {
		snap.Spans = snap.Spans[n-maxTraceEvents:]
	}
	f, err := os.Create(filepath.Join(b.outDir, "spans-"+b.w.name+".json"))
	if err != nil {
		return err
	}
	if err := snap.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s and spans-%s.json (%d benchmark-side spans)\n", path, b.w.name, rec.nextID.Load())
	return nil
}
