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

// overlapsEarlier reports whether op i's receive range shares a byte
// with anything ops[:i] send or receive — the hoisting rule's
// disjointness test, written out pairwise.
func overlapsEarlier(ops []sched.Op, i int) bool {
	lo, hi := ops[i].RecvOff, ops[i].RecvOff+ops[i].RecvLen
	hit := func(off, n int) bool { return n > 0 && off < hi && lo < off+n }
	for _, op := range ops[:i] {
		if (op.Kind != sched.OpRecv && hit(op.SendOff, op.SendLen)) ||
			(op.Kind != sched.OpSend && hit(op.RecvOff, op.RecvLen)) {
			return true
		}
	}
	return false
}

// TestHoistRule checks what compile marks for early posting, for every
// registry row on every rank of p ∈ {2..17, 64}, several roots, chunk
// sizes on both sides of the floor and segment sizes: every hoisted
// receive is at least the floor and disjoint from every earlier op's
// bytes; the hoisted receives are the longest such prefix (the first
// receive left out fails the rule); the opt rows hoist every receive when
// all of a rank's receives reach the floor; and the native rows never
// hoist a receive of bytes the scatter already delivered.
func TestHoistRule(t *testing.T) {
	procs := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}
	opt := map[string]bool{tune.RingOpt: true, tune.RingOptSeg: true, tune.RingOptSegNB: true}
	native := map[string]bool{tune.RingNative: true, tune.RingSeg: true, tune.RingSegNB: true}
	hoisted := 0
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
					owned := core.ScatterOwnership(p, root, n)
					for _, seg := range segs {
						var s rankOps
						for rank := 0; rank < p; rank++ {
							s.ops = e(s.ops[:0], rank, p, root, n, seg)
							s.hoist()
							ops, end := s.ops, len(s.pre)
							where := fmt.Sprintf("%s p=%d root=%d n=%d seg=%d rank %d", r.Name, p, root, n, seg, rank)
							if end > 0 && ops[end-1].Kind == sched.OpSend {
								t.Fatalf("%s: prefix ends on a send (op %d)", where, end-1)
							}
							allAtFloor := true
							for i := range ops {
								op := &ops[i]
								if op.Kind == sched.OpSend {
									continue
								}
								allAtFloor = allAtFloor && op.RecvLen >= hoistFloor
								if i < end {
									hoisted++
									if op.RecvLen < hoistFloor || overlapsEarlier(ops, i) {
										t.Fatalf("%s: op %d (%s) hoisted against the rule", where, i, op)
									}
									if native[r.Name] && op.Step >= 1 && owned(rank).Overlaps(op.RecvOff, op.RecvOff+op.RecvLen) {
										t.Fatalf("%s: op %d (%s) re-receives a scatter-owned chunk early", where, i, op)
									}
								}
							}
							for i := end; i < len(ops); i++ {
								if op := &ops[i]; op.Kind != sched.OpSend {
									if op.RecvLen >= hoistFloor && !overlapsEarlier(ops, i) {
										t.Fatalf("%s: op %d (%s) ends the prefix but passes the rule", where, i, op)
									}
									if opt[r.Name] && allAtFloor {
										t.Fatalf("%s: op %d (%s) not hoisted, yet every receive reaches the floor", where, i, op)
									}
									break
								}
							}
						}
					}
				}
			}
		}
	}
	if hoisted == 0 {
		t.Fatal("the grid hoisted nothing")
	}
}

// hidePrepost wraps a communicator without passing on mpi.Preposter:
// every receive is posted at its op, the executor's behaviour before
// early posting.
type hidePrepost struct {
	mpi.Comm
	mpi.TagStreamer
}

// TestHoistStopsAtBelowFloorTail: on a segmented opt ring whose chunks
// end in a segment below the floor, the prefix ends at the first such
// tail, so the full segments that follow from the same neighbour are
// posted at their own op — and the run with early posting delivers the
// bytes and the traffic of the run without it.
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
		s.hoist()
		tail := -1
		for i, op := range s.ops {
			if op.Kind != sched.OpSend && op.RecvLen < hoistFloor {
				tail = i
				break
			}
		}
		if rank == 0 {
			if tail >= 0 || len(s.pre) != 0 {
				t.Fatalf("root: tail at op %d, %d ops hoisted; the root receives nothing", tail, len(s.pre))
			}
			continue
		}
		if tail < 0 || len(s.pre) > tail {
			t.Fatalf("rank %d: tail at op %d, prefix runs to op %d", rank, tail, len(s.pre))
		}
		later := false
		for _, op := range s.ops[tail+1:] {
			later = later || (op.Kind != sched.OpSend && op.From == s.ops[tail].From && op.RecvLen >= hoistFloor)
		}
		if !later {
			t.Fatalf("rank %d: no full segment from op %d's source after it — the case is not exercised", rank, tail)
		}
	}

	want := pattern(n)
	var stats [2]trace.Stats
	for k, hide := range []bool{false, true} {
		col := trace.NewCollector()
		err := engine.RunWith(engine.Options{NP: p, Timeout: 30 * time.Second}, func(c mpi.Comm) error {
			tc := col.Wrap(c)
			if hide {
				tc = hidePrepost{tc, tc.(mpi.TagStreamer)}
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
			t.Fatalf("hidden=%v: %v", hide, err)
		}
		stats[k] = col.Stats()
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("early posting changed the traffic:\nwith:    %+v\nwithout: %+v", stats[0], stats[1])
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
			r, ok := c.(mpi.Preposter).Prepost(nil, in, left, TagRing)
			if ok != (tr == nil) {
				return fmt.Errorf("rank %d: Prepost from rank %d = %v over %v", c.Rank(), left, ok, c)
			}
			if err := c.Send(out, right, TagRing); err != nil {
				return err
			}
			if ok {
				if _, err := r.Wait(); err != nil {
					return err
				}
			} else if _, err := c.Recv(in, left, TagRing); err != nil {
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
