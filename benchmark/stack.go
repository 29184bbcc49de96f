package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/bcast"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/tune"
)

// runTimeout guards every Run: far above any phase of the benchmark, so
// it only fires on a wedged world.
const runTimeout = 5 * time.Minute

// faultySocketBuf is the kernel buffer the benchmark asks for on the
// socket it wraps in transport.Faulty. transport sizes only sockets it
// sees unwrapped; without this the lossy workload measures kernel
// receive-buffer overflow instead of injected loss (see README, known
// limits).
const faultySocketBuf = 8 << 20

// stack is one booted instance of a workload shape: a bcast.Cluster for
// the facade call styles, or a bare engine.World with its own transport
// for bareCall. It is what every phase of the benchmark drives.
type stack struct {
	w   workload
	rec *recorder // benchmark-side spans; nil outside the traced run

	cl *bcast.Cluster

	world *engine.World
	trans transport.Transport
	mx    *metrics.Metrics
	col   *trace.Collector
	dec   tune.Decision
	prog  *sched.Program

	runSpan uint32 // id of the Run span in flight, parent of the rank spans
}

// nativeOf maps a pinned tuned-ring algorithm to its enclosed-ring
// counterpart, the paper's MPI_Bcast_native at the same shape.
func nativeOf(algo string) string {
	switch algo {
	case tune.RingOpt:
		return tune.RingNative
	case tune.RingOptSeg:
		return tune.RingSeg
	}
	return algo
}

// open builds the stack for w without booting it: the first run boots.
// seed feeds the fault injector of lossy shapes.
func open(w workload, seed int64, rec *recorder) (*stack, error) {
	s := &stack{w: w, rec: rec}
	id, t0 := s.begin()
	var err error
	if w.style == bareCall {
		err = s.openBare(seed)
		s.end("engine.NewWorld", id, t0)
	} else {
		err = s.openCluster()
		s.end("bcast.NewCluster", id, t0)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.name, err)
	}
	return s, nil
}

func (s *stack) openCluster() error {
	w := s.w
	if w.drop > 0 {
		return fmt.Errorf("the facade cannot inject loss")
	}
	opts := []bcast.Option{bcast.Procs(w.np), bcast.Timeout(runTimeout)}
	if w.placement != "" {
		opts = append(opts, bcast.Placement(w.placement))
	}
	if w.algo != "" {
		algo := w.algo
		if w.native {
			algo = nativeOf(algo)
		}
		opts = append(opts, bcast.Algorithm(algo))
		if w.seg > 0 {
			opts = append(opts, bcast.SegSize(w.seg))
		}
	} else {
		opts = append(opts, bcast.Tuner(bcast.MPICH3Tuner(!w.native)))
	}
	if w.transport != "" {
		opts = append(opts, bcast.WithTransport(w.transport))
	}
	if w.pooled {
		opts = append(opts, bcast.ExecPooled(0))
	}
	if w.spans > 0 {
		opts = append(opts, bcast.WithSpans(w.spans))
	}
	if w.traffic {
		opts = append(opts, bcast.TraceTraffic())
	}
	cl, err := bcast.NewCluster(context.Background(), opts...)
	if err != nil {
		return err
	}
	s.cl = cl
	return nil
}

// topology is the shape's placement as the engine takes it; nil means
// every rank on one node.
func (w workload) topology() (*topology.Map, error) {
	if w.placement == "" {
		return nil, nil
	}
	pl, err := tune.ParsePlacement(w.placement)
	if err != nil {
		return nil, err
	}
	return pl.Map(w.np)
}

func (s *stack) openBare(seed int64) error {
	w := s.w
	topo, err := w.topology()
	if err != nil {
		return err
	}
	if w.algo != "" {
		s.dec = tune.Decision{Algorithm: w.algo, SegSize: w.seg}
		if w.native {
			s.dec.Algorithm = nativeOf(w.algo)
		}
	} else {
		s.dec = tune.MPICH3{Tuned: !w.native}.Decide(tune.EnvOf(w.size, w.np, topo))
	}
	if w.program {
		reg, ok := collective.Lookup(s.dec.Algorithm)
		if !ok || reg.Program == nil {
			return fmt.Errorf("no generated schedule for %q", s.dec.Algorithm)
		}
		prog, err := reg.Program(w.np, 0, w.size, s.dec.SegSize)
		if err != nil {
			return err
		}
		s.prog = prog
	}
	trans, err := openTransport(w, seed)
	if err != nil {
		return err
	}
	s.trans = trans
	s.mx = metrics.New(w.np, w.spans)
	if w.traffic {
		s.col = trace.NewCollector()
	}
	opts := engine.Options{NP: w.np, Topology: topo, Metrics: s.mx, Transport: trans, Timeout: runTimeout}
	if w.pooled {
		opts.Executor = engine.Pooled
	}
	world, err := engine.NewWorld(opts)
	if err != nil {
		trans.Close()
		return err
	}
	s.world = world
	return nil
}

// openTransport builds the bare world's transport. A lossy shape binds
// its own socket, sizes the kernel buffers on the raw connection, and
// only then wraps it in the fault injector.
func openTransport(w workload, seed int64) (transport.Transport, error) {
	if w.drop == 0 {
		return transport.New(w.transport, w.np)
	}
	if w.transport != transport.UDPName {
		return nil, fmt.Errorf("loss injection needs the udp transport")
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if uc, ok := conn.(*net.UDPConn); ok {
		// Best effort, like transport's own sizing: the kernel clamps to
		// its rmem/wmem ceilings.
		_ = uc.SetReadBuffer(faultySocketBuf)
		_ = uc.SetWriteBuffer(faultySocketBuf)
	}
	faulty := transport.NewFaulty(conn, transport.FaultConfig{Drop: w.drop, Seed: seed})
	// NewUDP closes the socket itself when it rejects the config.
	return transport.NewUDP(transport.UDPConfig{NP: w.np, Conn: faulty, ForceWire: true})
}

func (s *stack) begin() (uint32, int64) {
	if s.rec == nil {
		return 0, 0
	}
	return s.rec.begin()
}

func (s *stack) end(name string, id uint32, start int64) {
	if s.rec != nil {
		s.rec.end(s.rec.driver(), name, id, 0, -1, start)
	}
}

// run executes fn once per rank and waits for all of them.
func (s *stack) run(fn func(r *rank) error) error {
	id, t0 := s.begin()
	s.runSpan = id
	var err error
	if s.cl != nil {
		err = s.cl.Run(context.Background(), func(c bcast.Comm) error {
			return fn(&rank{s: s, id: c.Rank(), c: c})
		})
		s.end("Cluster.Run", id, t0)
	} else {
		err = s.world.Run(func(mc mpi.Comm) error {
			if s.col != nil {
				mc = s.col.WrapSlot(mc.Rank(), mc)
			}
			return fn(&rank{s: s, id: mc.Rank(), mc: mc})
		})
		s.end("World.Run", id, t0)
	}
	return err
}

// decision is the algorithm and segment size the stack's broadcasts run.
func (s *stack) decision() (algo string, seg int) {
	if s.cl != nil {
		d := s.cl.Decision(s.w.size)
		return d.Algorithm, d.SegSize
	}
	return s.dec.Algorithm, s.dec.SegSize
}

// snapshot is the stack's merged counter view, bufpool included.
func (s *stack) snapshot() metrics.Snapshot {
	id, t0 := s.begin()
	defer s.end("Metrics", id, t0)
	if s.cl != nil {
		return s.cl.Metrics()
	}
	snap := engine.CollectMetrics(s.mx)
	if s.col != nil {
		st := s.col.Stats()
		snap.Traffic = &metrics.TrafficTotals{Messages: st.Total.Messages, Bytes: st.Total.Bytes}
	}
	return snap
}

func (s *stack) close() error {
	id, t0 := s.begin()
	defer s.end("Close", id, t0)
	if s.cl != nil {
		return s.cl.Close()
	}
	s.world = nil
	return s.trans.Close()
}

// rank is one rank's handle on a running stack, valid inside run.
type rank struct {
	s  *stack
	id int
	c  bcast.Comm
	mc mpi.Comm
	ph *bcast.Persistent
}

var bg = context.Background()

// bind prepares the rank to broadcast buf repeatedly: BcastInit for the
// persistent style, nothing for the others.
func (r *rank) bind(buf []byte) error {
	if r.s.w.style != persistentCall {
		return nil
	}
	id, t0 := r.s.begin()
	ph, err := r.c.BcastInit(buf, 0)
	r.end("Comm.BcastInit", id, -1, t0)
	r.ph = ph
	return err
}

// bcast issues one broadcast of buf from rank 0 in the workload's call
// style. The untraced path adds nothing around the call.
func (r *rank) bcast(buf []byte, round int) error {
	if r.s.rec == nil {
		return r.call(buf)
	}
	id, t0 := r.s.rec.begin()
	err := r.call(buf)
	r.end(r.callName(), id, round, t0)
	return err
}

func (r *rank) call(buf []byte) error {
	switch {
	case r.ph != nil:
		return r.ph.Run(bg)
	case r.mc == nil:
		return r.c.Bcast(bg, buf, 0)
	case r.s.prog != nil:
		mpi.AdvanceTagStream(r.mc)
		return collective.ExecProgram(r.mc, r.s.prog, buf)
	default:
		return collective.RunDecision(r.mc, buf, 0, r.s.dec)
	}
}

func (r *rank) callName() string {
	switch {
	case r.ph != nil:
		return "Persistent.Run"
	case r.mc == nil:
		return "Comm.Bcast"
	case r.s.prog != nil:
		return "collective.ExecProgram"
	default:
		return "collective.RunDecision"
	}
}

func (r *rank) barrier(round int) error {
	id, t0 := r.s.begin()
	var err error
	if r.mc != nil {
		err = collective.Barrier(r.mc)
	} else {
		err = r.c.Barrier(bg)
	}
	r.end("Barrier", id, round, t0)
	return err
}

func (r *rank) end(name string, id uint32, round int, start int64) {
	if rc := r.s.rec; rc != nil {
		rc.end(r.id, name, id, r.s.runSpan, round, start)
	}
}
