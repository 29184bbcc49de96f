package collective

import (
	"bytes"
	"fmt"
	"reflect"
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

// touches reports whether op sends or receives any byte of [lo, hi).
func touches(op *sched.Op, lo, hi int) bool {
	hit := func(off, n int) bool { return n > 0 && off < hi && lo < off+n }
	return (op.Kind != sched.OpRecv && hit(op.SendOff, op.SendLen)) ||
		(op.Kind != sched.OpSend && hit(op.RecvOff, op.RecvLen))
}

// checkManaged holds what manage computed for s.ops to the rule, written
// out op by op: the managed receives are exactly the receive halves of at
// least hoistFloor bytes, in op order; post points never decrease, none
// is after its op or before the op after a smaller receive (which runs at
// its op); no op in [post, i) or (i, done) touches the receive's bytes,
// op done does (or done is the end), and no earlier managed receive of
// any of them is still in flight at post; order lists every managed
// receive by completion point. It returns how many managed receives
// complete after a later op has run.
func checkManaged(t *testing.T, where string, s *rankOps) (late int) {
	t.Helper()
	ops, k, floor := s.ops, 0, 0
	for i := range ops {
		op := &ops[i]
		if op.Kind == sched.OpSend {
			continue
		}
		if op.RecvLen < hoistFloor {
			floor = i + 1
			continue
		}
		if k == len(s.recvs) || s.recvs[k].op != i {
			t.Fatalf("%s: op %d (%s) is not managed", where, i, op)
		}
		e := s.recvs[k]
		if k > 0 {
			floor = max(floor, s.recvs[k-1].post)
		}
		if e.post < floor || e.post > i {
			t.Fatalf("%s: op %d (%s) posted at %d, want within [%d, %d]", where, i, op, e.post, floor, i)
		}
		lo, hi := op.RecvOff, op.RecvOff+op.RecvLen
		for j := e.post; j < min(e.done, len(ops)); j++ {
			if j != i && touches(&ops[j], lo, hi) {
				t.Fatalf("%s: op %d (%s) in flight over [%d, %d), yet op %d (%s) touches its bytes", where, i, op, e.post, e.done, j, &ops[j])
			}
		}
		if e.done <= i || (e.done < len(ops) && !touches(&ops[e.done], lo, hi)) {
			t.Fatalf("%s: op %d (%s) completed at %d, not where its bytes are next touched", where, i, op, e.done)
		}
		for _, f := range s.recvs[:k] {
			if f.done > e.post && touches(&ops[f.op], lo, hi) {
				t.Fatalf("%s: op %d (%s) posted at %d while op %d's receive of its bytes is in flight until %d", where, i, op, e.post, f.op, f.done)
			}
		}
		if e.done > i+1 {
			late++
		}
		k++
	}
	if k != len(s.recvs) || len(s.order) != k {
		t.Fatalf("%s: %d receives reach the floor, %d managed, %d ordered", where, k, len(s.recvs), len(s.order))
	}
	seen := make([]bool, k)
	for j, r := range s.order {
		if seen[r] || (j > 0 && s.recvs[s.order[j-1]].done > s.recvs[r].done) {
			t.Fatalf("%s: completion order %v is not by completion point", where, s.order)
		}
		seen[r] = true
	}
	return late
}

// TestHoistRule checks where compile places the receives the loop
// manages (checkManaged), for every registry row on every rank of
// p ∈ {2..17, 64}, several roots, chunk sizes on both sides of the floor
// and segment sizes; and that on the opt rows, when all of a rank's
// receives reach the floor, every one is posted at entry, since the tuned
// ring receives no byte a rank already holds.
func TestHoistRule(t *testing.T) {
	procs := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}
	opt := map[string]bool{tune.RingOpt: true, tune.RingOptSeg: true}
	managed, late := 0, 0
	for _, r := range Algorithms() {
		segs := []int{0}
		if r.Caps.Segmented {
			segs = []int{hoistFloor, hoistFloor / 2}
		}
		for _, p := range procs {
			topo := topology.Blocked(p, 4)
			e := r.emitter(topo)
			for _, root := range []int{0, p / 2, p - 1} {
				for _, chunk := range []int{1 << 10, hoistFloor, hoistFloor + 1000} {
					n := p * chunk
					if !r.Caps.Match(tune.EnvOf(n, p, topo)) {
						continue
					}
					for _, seg := range segs {
						var s rankOps
						for rank := 0; rank < p; rank++ {
							s.ops = e(s.ops[:0], rank, p, root, n, seg)
							s.manage()
							where := fmt.Sprintf("%s p=%d root=%d n=%d seg=%d rank %d", r.Name, p, root, n, seg, rank)
							late += checkManaged(t, where, &s)
							managed += len(s.recvs)
							allAtFloor := true
							for _, op := range s.ops {
								allAtFloor = allAtFloor && (op.Kind == sched.OpSend || op.RecvLen >= hoistFloor)
							}
							for _, e := range s.recvs {
								if opt[r.Name] && allAtFloor && e.post != 0 {
									t.Fatalf("%s: op %d (%s) posted at %d, yet every receive reaches the floor", where, e.op, &s.ops[e.op], e.post)
								}
							}
						}
					}
				}
			}
		}
	}
	if managed == 0 || late == 0 {
		t.Fatalf("the grid managed %d receives, %d completed after a later op", managed, late)
	}

	// A partial overlap no registry row has: the second receive shares
	// half its bytes with the first, which stays in flight until op 2
	// sends its other half, so the second posts only then — later than
	// the op after the last op touching its own bytes.
	s := rankOps{ops: []sched.Op{
		{Kind: sched.OpRecv, From: 1, RecvLen: 2 * hoistFloor},
		{Kind: sched.OpSend, To: 2, SendOff: 4 * hoistFloor, SendLen: hoistFloor},
		{Kind: sched.OpSend, To: 2, SendLen: hoistFloor},
		{Kind: sched.OpRecv, From: 1, RecvOff: hoistFloor, RecvLen: 2 * hoistFloor},
	}}
	s.manage()
	checkManaged(t, "partial overlap", &s)
	if e := s.recvs[1]; e.post != 2 || e.done != 4 {
		t.Fatalf("partial overlap: second receive posted at %d, completed at %d; want 2 and 4", e.post, e.done)
	}
}

// hidePrepost wraps a communicator whose Prepost declines every
// receive: each runs at its op, blocking execution.
type hidePrepost struct{ mpi.Comm }

func (hidePrepost) Prepost(req mpi.Request, _ []byte, _, _ int) (mpi.Request, bool) {
	return req, false
}

// TestHoistStopsAtBelowFloorTail: on a segmented opt ring whose chunks
// end in a segment below the floor, that tail runs at its op, so every
// managed receive after it — the full segments that follow from the same
// neighbour among them — is posted after the tail's op. The run with
// early posting delivers the bytes and the traffic of the run without
// it, with eager messages and with every message rendezvous.
func TestHoistStopsAtBelowFloorTail(t *testing.T) {
	const (
		p     = 4
		chunk = hoistFloor + 1000 // one full segment and a 1000-byte tail
		n     = p * chunk
	)
	d := tune.Decision{Algorithm: tune.RingOptSeg, SegSize: hoistFloor}
	for rank := 0; rank < p; rank++ {
		var s rankOps
		s.ops = core.BcastOptSegOps(s.ops, rank, p, 0, n, d.SegSize)
		s.manage()
		tail, later := -1, false
		for i, op := range s.ops {
			if op.Kind == sched.OpSend || op.RecvLen >= hoistFloor {
				continue
			}
			tail = i
			for _, e := range s.recvs {
				if e.op > i && e.post <= i {
					t.Fatalf("rank %d: op %d (%s) posted at %d, before the tail at op %d", rank, e.op, &s.ops[e.op], e.post, i)
				}
				later = later || (e.op > i && s.ops[e.op].From == op.From)
			}
		}
		if rank == 0 {
			if tail >= 0 || len(s.recvs) != 0 {
				t.Fatalf("root: tail at op %d, %d receives managed; the root receives nothing", tail, len(s.recvs))
			}
			continue
		}
		if !later {
			t.Fatalf("rank %d: no full segment from a tail's source after it — the case is not exercised", rank)
		}
	}

	want := pattern(n)
	var stats [3]trace.Stats
	for k, v := range []struct{ hide, rdv bool }{{true, false}, {false, false}, {false, true}} {
		opts := engine.Options{NP: p, Timeout: 30 * time.Second}
		if v.rdv {
			opts.EagerLimit = -1
		}
		col := trace.NewCollector()
		err := engine.RunWith(opts, func(c mpi.Comm) error {
			tc := col.WrapSlot(c.Rank(), c)
			if v.hide {
				tc = hidePrepost{tc}
			}
			buf := make([]byte, n)
			if c.Rank() == 0 {
				copy(buf, want)
			}
			for round := 0; round < 3; round++ {
				if err := RunDecision(tc, buf, 0, d); err != nil {
					return err
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("rank %d round %d: first diff at %d", c.Rank(), round, firstDiff(buf, want))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", v, err)
		}
		stats[k] = col.Stats()
		if !reflect.DeepEqual(stats[k], stats[0]) {
			t.Fatalf("early posting changed the traffic (%+v):\nwith:    %+v\nwithout: %+v", v, stats[k], stats[0])
		}
	}
	if stats[0].Recvs != stats[0].Total.Messages {
		t.Fatalf("recvs=%d != msgs=%d", stats[0].Recvs, stats[0].Total.Messages)
	}
}

// TestPrepostSkipsWiredSources: on a force-wired UDP world every source
// is wired, so the engine declines every early post — a rank holds at
// most the one receive its current op posted, and the broadcast is
// still byte-identical — while in process the same post is taken.
func TestPrepostSkipsWiredSources(t *testing.T) {
	const (
		p = 4
		n = p * 8 << 10
	)
	run := func(tr transport.Transport) metrics.Snapshot {
		m := metrics.New(p, 0)
		want := pattern(n)
		err := engine.RunWith(engine.Options{NP: p, Timeout: 60 * time.Second, Transport: tr, Metrics: m}, func(c mpi.Comm) error {
			left, right := (c.Rank()+p-1)%p, (c.Rank()+1)%p
			in, out := make([]byte, hoistFloor), make([]byte, hoistFloor)
			r, ok := c.Prepost(nil, in, left, core.TagRing)
			if ok != (tr == nil) {
				return fmt.Errorf("rank %d: Prepost from rank %d = %v over %v", c.Rank(), left, ok, c)
			}
			if err := c.Send(out, right, core.TagRing); err != nil {
				return err
			}
			if ok {
				if _, err := r.Wait(); err != nil {
					return err
				}
			} else if _, err := c.Recv(in, left, core.TagRing); err != nil {
				return err
			}
			buf := make([]byte, n)
			if c.Rank() == 0 {
				copy(buf, want)
			}
			if err := RunDecision(c, buf, 0, tune.Decision{Algorithm: tune.RingOpt}); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d: first diff at %d", c.Rank(), firstDiff(buf, want))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	tr, err := transport.SelfUDP(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if s := run(tr); s.PostedQueueMax > 1 {
		t.Errorf("wired world: %d receives posted at once, want 1 at a time", s.PostedQueueMax)
	}
	run(nil)
}
