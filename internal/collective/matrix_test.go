package collective

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/tune"
)

// Call styles: one RunDecision per round, one kept Plan Executed once
// per round (the engine half of the facade's persistent handles), or one
// Calls.Broadcast per round through the rank's own Calls (the engine
// half of the facade's per-call Bcast).
const (
	styleCall   = "call"
	stylePlan   = "plan"
	styleCached = "cached"
)

// Transports: the in-process channels, a loopback UDP socket every
// message crosses, and that socket behind a Faulty that drops 5 % of the
// datagrams and duplicates and reorders 2 % — read in batches (on Linux)
// or, hidden behind a wrapper without SyscallConn, one datagram at a time.
const (
	wireChan          = "chan"
	wireUDP           = "udp"
	wireLossy         = "udp-lossy"
	wireLossyPortable = "udp-lossy-portable"
)

// cell is one point of the parity matrix: registry row row broadcasting n
// bytes from root over p ranks placed by place (a tune.ParsePlacement
// spec, or "irregular"), with segment size seg (0 = the row's default),
// rounds times on one world with the given executor, transport and call
// style.
type cell struct {
	row       string
	place     string
	p, root   int
	n, seg    int
	exec      engine.ExecPolicy
	workers   int // the pooled executor's MaxWorkers (0 = GOMAXPROCS)
	transport string
	style     string
	rounds    int
}

func (c cell) String() string {
	exec := c.exec.String()
	if c.exec == engine.Pooled {
		exec = fmt.Sprintf("%s:%d", exec, c.workers)
	}
	return fmt.Sprintf("%s %s p=%d root=%d n=%d seg=%d %s %s %s x%d",
		c.row, c.place, c.p, c.root, c.n, c.seg, exec, c.transport, c.style, c.rounds)
}

// matrixCells is the parity matrix: the union of the sweeps below over
// every registry row, each distinct cell once. A row is never skipped: a
// cell its capabilities refuse checks the refusal. A zero transport,
// style or round count is the plain run: chan, call, one round.
func matrixCells() []cell {
	var cells []cell
	seen := map[cell]bool{}
	add := func(c cell) {
		if r, _ := Lookup(c.row); !r.Caps.Segmented {
			c.seg = 0
		}
		if c.transport == "" {
			c.transport = wireChan
		}
		if c.style == "" {
			c.style = styleCall
		}
		c.rounds = max(c.rounds, 1)
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	pooled := func(c cell, workers int) cell {
		c.exec, c.workers = engine.Pooled, workers
		return c
	}
	planned := func(c cell) cell {
		c.style, c.rounds = stylePlan, 3
		return c
	}
	// kept adds c as a kept plan and as cached calls: three rounds each,
	// the last two of them hits.
	kept := func(c cell) {
		add(planned(c))
		c.style, c.rounds = styleCached, 3
		add(c)
	}
	for _, r := range Algorithms() {
		row := r.Name
		// Every placement shape, power-of-two and not, above and below
		// four cores per node, at awkward sizes: empty, one byte, either
		// side of the segment, not divisible by p.
		for _, place := range []string{"single", "blocked:4", "round-robin:4"} {
			for _, p := range []int{4, 5, 8, 9, 13} {
				for _, n := range []int{0, 1, 511, 513, 10*p + 3} {
					add(cell{row: row, place: place, p: p, root: p / 2, n: n, seg: 512})
				}
			}
		}
		// Every communicator size from one rank, every root position,
		// several segments per chunk and segments one byte short of and
		// equal to a chunk. A row whose pattern ignores the node map runs
		// on one node; a topology-composed one also on blocked and
		// round-robin nodes and on an irregular map whose nodes are
		// interleaved and unevenly filled, so some roots are not leaders.
		for _, p := range []int{1, 2, 3, 7, 8, 10, 16} {
			places := []string{"single"}
			if r.TopoOps != nil {
				places = append(places, "blocked:4", "round-robin:3", "irregular")
			}
			for _, place := range places {
				for _, n := range []int{0, 1, 10*p + 3, 3*p*core.DefaultChainSegment + 5} {
					chunk := core.NewLayout(n, p).ScatterSize
					for _, root := range []int{0, p / 2, p - 1}[:min(p, 3)] {
						for _, seg := range []int{0, max(chunk-1, 1), max(chunk, 1)} {
							add(cell{row: row, place: place, p: p, root: root, n: n, seg: seg})
						}
					}
				}
			}
		}
		// The rings against their closed forms: sizes of one byte per
		// rank, uneven chunks and 1 KiB, roots at both ends.
		if row == tune.RingNative || row == tune.RingOpt {
			for _, p := range []int{2, 3, 5, 8, 9, 10, 16, 17} {
				for _, root := range []int{0, p - 1} {
					for _, n := range []int{p, 8*p + 3, 1 << 10} {
						add(cell{row: row, place: "single", p: p, root: root, n: n})
					}
				}
			}
		}
		// Both executors, the pooled one with fewer workers than ranks so
		// every blocking point parks; the last size's chunks and segments
		// are hoistFloor bytes, so receives are posted ahead of their ops.
		for _, place := range []string{"single", "blocked:4", "round-robin:4"} {
			for _, p := range []int{5, 8} {
				for _, size := range []struct{ n, seg int }{{513, 512}, {10*p + 3, 512}, {p * hoistFloor, hoistFloor}} {
					c := cell{row: row, place: place, p: p, root: p / 2, n: size.n, seg: size.seg}
					add(c)
					add(pooled(c, 2))
				}
			}
		}
		// Every message framed into datagrams, acked and reassembled, on
		// both executors, eager and rendezvous.
		for _, n := range []int{513, 32 << 10} {
			c := cell{row: row, place: "blocked:4", p: 8, root: 4, n: n, seg: 512, transport: wireUDP}
			add(c)
			add(pooled(c, 2))
		}
		// One kept plan, and one Calls per rank, three rounds, on both
		// executors and on one and two nodes, at 512 B chunks with 1 KiB
		// segments and at 8 KiB of both.
		for _, place := range []string{"single", "blocked:8", "round-robin:8"} {
			for _, size := range []struct{ n, seg int }{{8 << 10, 1 << 10}, {128 << 10, 8 << 10}} {
				c := cell{row: row, place: place, p: 16, n: size.n, seg: size.seg}
				kept(c)
				kept(pooled(c, 0))
			}
		}
		// Kept plans whose messages the engine binds to per-edge slot
		// rings (at most 256 B, in-process), at the message rate of
		// msgrate-np64: empty chunks, every message bound, and bound ring
		// segments beside unbound scatter messages; then one over the
		// wire, where nothing may be bound. A cached Plan is never kept,
		// so the same shapes through a Calls bind nothing.
		for _, p := range []int{16, 64} {
			for _, n := range []int{3, p * 64, p * 64 * 8} {
				c := cell{row: row, place: fmt.Sprintf("blocked:%d", p/2), p: p, root: p/2 + 1, n: n, seg: 64}
				kept(c)
				kept(pooled(c, 0))
				kept(pooled(c, 2))
			}
		}
		kept(cell{row: row, place: "blocked:4", p: 8, root: 4, n: 8 * 64, seg: 64, transport: wireUDP})
		// Where the axes meet, with receives posted ahead of their ops: a
		// kept plan over the wire, a kept plan on the pooled executor, the
		// wire on the pooled executor.
		c := cell{row: row, place: "blocked:4", p: 8, root: 4, n: 8 * hoistFloor, seg: hoistFloor}
		udp := c
		udp.transport = wireUDP
		kept(udp)
		kept(pooled(c, 2))
		add(pooled(udp, 2))
	}
	return cells
}

// TestParityMatrix holds every cell of the matrix to its own schedule
// (see runCell).
func TestParityMatrix(t *testing.T) {
	for _, c := range matrixCells() {
		t.Run(c.String(), func(t *testing.T) { runCell(t, c) })
	}
}

// runCell runs one cell and checks the whole oracle:
//
//   - the row's schedule verifies: deadlock-free, no transfer of bytes
//     the sender does not hold, every rank ends with the whole buffer;
//     where the row's capabilities refuse the environment, Schedule and
//     the cell's call style both refuse, and nothing else is checked;
//   - every rank starts from its own garbage and ends every round
//     byte-identical to the root, whose payload changes every round;
//   - the traced traffic is rounds times the schedule's: messages and
//     bytes in total, split intra/inter node on the cell's map, and by
//     tag; every message is received once; and the traced messages and
//     receives are the engine's own send and receive counters, read as
//     Run returns;
//   - a kept plan whose messages all fit the engine's bound edges leaves
//     its queues untouched, where every other cell uses them; over a
//     wire, every message crossed it;
//   - a cached cell's Calls binds one Plan, in the first round: every
//     later round is a hit on it;
//   - for the unsegmented rings, the scatter and ring phases equal the
//     closed forms of core/traffic.go, and for the SMP rows the intra/
//     inter split equals the closed form of the three phases: one
//     whole-buffer tree message per non-leader, all inside nodes, and
//     the leaders' scatter and ring, all between them. The closed forms
//     share no code with the emitters.
//
// It returns the world's metrics snapshot.
func runCell(t *testing.T, c cell) metrics.Snapshot {
	t.Helper()
	r, ok := Lookup(c.row)
	if !ok {
		t.Fatalf("%s: no such row", c)
	}
	topo := c.topology(t)
	m := metrics.New(c.p, 0)
	opts := engine.Options{
		NP: c.p, Topology: topo, Executor: c.exec, MaxWorkers: c.workers,
		Timeout: 2 * time.Minute, Metrics: m,
	}
	tr := c.wire(t)
	if tr != nil {
		defer tr.Close()
		opts.Transport, opts.EagerLimit = tr, 2<<10
	}
	d := tune.Decision{Algorithm: c.row, SegSize: c.seg}
	start := func(comm mpi.Comm, buf []byte) (func() error, error) {
		switch c.style {
		case styleCall:
			return func() error { return RunDecision(comm, buf, c.root, d) }, nil
		case styleCached:
			calls, o := new(Calls), Options{Algorithm: c.row, SegSize: c.seg}
			var first *Plan
			return func() error {
				if err := calls.Broadcast(comm, buf, c.root, o); err != nil {
					return err
				}
				if first == nil {
					first = calls.plans[0]
				}
				if calls.n != 1 || calls.plans[0] != first {
					return fmt.Errorf("a repeated call bound a Plan of its own (%d held)", calls.n)
				}
				return nil
			}, nil
		}
		plan, err := NewPlan(comm, c.n, c.root, Options{Algorithm: c.row, SegSize: c.seg})
		if err != nil {
			return nil, err
		}
		return func() error { return plan.Execute(comm, buf) }, nil
	}

	pr, err := r.Schedule(topo, c.root, c.n, c.seg)
	if !r.Caps.Match(tune.EnvOf(c.n, c.p, topo)) {
		if err == nil {
			t.Fatalf("%s: Schedule ignored the row's capabilities", c)
		}
		err := engine.RunWith(opts, func(comm mpi.Comm) error {
			run, err := start(comm, make([]byte, c.n))
			if err == nil {
				err = run()
			}
			if err == nil || !strings.Contains(err.Error(), "cannot run") {
				return fmt.Errorf("%v, want the capability error", err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		return m.Snapshot()
	}
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	if _, err := sched.Verify(pr, sched.VerifyConfig{WantFinal: sched.FullBuffer(c.n)}); err != nil {
		t.Fatalf("%s: %v", c, err)
	}

	// Round k broadcasts payload[k:k+n], which differs from round k-1's
	// in every byte: a stale byte anywhere fails.
	payload := pattern(c.n + c.rounds)
	col := trace.NewCollector()
	err = engine.RunWith(opts, func(comm mpi.Comm) error {
		rank := comm.Rank()
		buf := bytes.Repeat([]byte{byte(0xA0 + rank)}, c.n)
		run, err := start(col.WrapSlot(rank, comm), buf)
		if err != nil {
			return err
		}
		for k := 0; k < c.rounds; k++ {
			want := payload[k : k+c.n]
			if rank == c.root {
				copy(buf, want)
			}
			if err := run(); err != nil {
				return fmt.Errorf("round %d: %w", k, err)
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d round %d: buffer mismatch (first diff at %d)", rank, k, firstDiff(buf, want))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}

	// The engine counts a wired receive before completing it, so its
	// counters are final when Run returns, with the transport still open.
	s := engine.CollectMetrics(m)
	got := col.Stats()
	if want := scheduleTraffic(pr, topo, c.rounds); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: traced %s\nthe schedule moves %s", c, got, want)
	}
	if got.Total.Messages != s.EagerSends+s.RdvSends || got.Recvs != s.EagerRecvs+s.RdvRecvs {
		t.Fatalf("%s: traced %d msgs / %d recvs, engine counted %d+%d sends / %d+%d recvs",
			c, got.Total.Messages, got.Recvs, s.EagerSends, s.RdvSends, s.EagerRecvs, s.RdvRecvs)
	}
	// A kept plan's in-process messages of at most 256 B (the engine's
	// inline payload) travel on the edges bound for them, past both
	// queues; any other message, and every one a per-call broadcast
	// sends, cached Plans' included, passes one of them.
	if tr == nil && pr.Messages() > 0 {
		bound := c.style == stylePlan && largestMessage(pr) <= boundMax
		if queued := s.ArrivalQueueMax+s.PostedQueueMax != 0; queued == bound {
			t.Fatalf("%s: every message bound: %v, yet the queues held %d arrivals / %d receives",
				c, bound, s.ArrivalQueueMax, s.PostedQueueMax)
		}
	}
	// Over a wire every message crossed it, in a datagram of its own at
	// least: none went by an in-process path, a kept plan's tiny edges
	// included. The transport counts a datagram after writing it, so
	// this reads its counters once it is closed.
	if tr != nil {
		tr.Close()
		if w := engine.CollectMetrics(m); w.WireDatagramsSent-w.WireAcksSent < got.Total.Messages {
			t.Fatalf("%s: %d data datagrams for %d messages", c, w.WireDatagramsSent-w.WireAcksSent, got.Total.Messages)
		}
	}
	times := func(f core.Traffic) trace.Counts {
		return trace.Counts{Messages: int64(c.rounds * f.Messages), Bytes: int64(c.rounds * f.Bytes)}
	}
	switch leaders := topo.NumNodes(); c.row {
	case tune.RingNative, tune.RingOpt:
		ring := core.RingTrafficNative(c.p, c.n)
		if c.row == tune.RingOpt {
			ring = core.RingTrafficTuned(c.p, c.n)
		}
		if sc, rg := got.ByTag[core.TagScatter], got.ByTag[core.TagRing]; sc != times(core.ScatterTraffic(c.p, c.n)) || rg != times(ring) {
			t.Fatalf("%s: traced scatter %+v ring %+v, closed forms %+v / %+v",
				c, sc, rg, times(core.ScatterTraffic(c.p, c.n)), times(ring))
		}
	case tune.SMP, tune.SMPOpt:
		ring := core.RingTrafficNative(leaders, c.n)
		if c.row == tune.SMPOpt {
			ring = core.RingTrafficTuned(leaders, c.n)
		}
		intra := times(core.Traffic{Messages: c.p - leaders, Bytes: (c.p - leaders) * c.n})
		inter := times(core.ScatterTraffic(leaders, c.n))
		inter.Add(times(ring))
		if got.Intra != intra || got.Inter != inter {
			t.Fatalf("%s: traced intra %+v inter %+v, the three phases move %+v / %+v", c, got.Intra, got.Inter, intra, inter)
		}
	}
	return s
}

// boundMax is the largest message the engine carries on a kept plan's
// bound edge.
const boundMax = 256

// largestMessage is the longest send of pr.
func largestMessage(pr *sched.Program) int {
	n := 0
	for _, ops := range pr.Ranks {
		for _, op := range ops {
			n = max(n, op.SendLen)
		}
	}
	return n
}

// scheduleTraffic is what rounds runs of pr move on topo: every send
// half, in total, split by whether its two ranks share a node, and by
// tag, each received once.
func scheduleTraffic(pr *sched.Program, topo *topology.Map, rounds int) trace.Stats {
	s := trace.Stats{ByTag: map[int]trace.Counts{}}
	for r, ops := range pr.Ranks {
		for _, op := range ops {
			if op.Kind == sched.OpRecv {
				continue
			}
			m := trace.Counts{Messages: int64(rounds), Bytes: int64(rounds * op.SendLen)}
			s.Total.Add(m)
			if topo.SameNode(r, op.To) {
				s.Intra.Add(m)
			} else {
				s.Inter.Add(m)
			}
			tag := s.ByTag[op.Tag]
			tag.Add(m)
			s.ByTag[op.Tag] = tag
		}
	}
	s.Recvs = s.Total.Messages
	return s
}

// topology builds the cell's node map.
func (c cell) topology(t *testing.T) *topology.Map {
	t.Helper()
	if c.place == "irregular" {
		m, err := topology.Custom([]int{0, 1, 1, 0, 2, 0, 1, 2, 2, 0, 1, 0, 0, 1, 2, 2}[:c.p])
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	pl, err := tune.ParsePlacement(c.place)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pl.Map(c.p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// noSyscallConn hides a socket's file descriptor: a transport over it
// has nothing to hand recvmmsg and reads with ReadFrom.
type noSyscallConn struct{ net.PacketConn }

// wire builds the cell's transport, nil for the in-process channels.
func (c cell) wire(t *testing.T) transport.Transport {
	t.Helper()
	var tr *transport.UDP
	var err error
	switch c.transport {
	case wireChan:
		return nil
	case wireUDP:
		tr, err = transport.SelfUDP(c.p)
	case wireLossy, wireLossyPortable:
		var conn net.PacketConn
		if conn, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
			break
		}
		if c.transport == wireLossyPortable {
			conn = noSyscallConn{conn}
		}
		faulty := transport.NewFaulty(conn, transport.FaultConfig{Drop: 0.05, Dup: 0.02, Reorder: 0.02})
		tr, err = transport.NewUDP(transport.UDPConfig{NP: c.p, Conn: faulty, ForceWire: true})
	default:
		err = fmt.Errorf("unknown transport %q", c.transport)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
