package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
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
// out op by op: the managed receives are exactly the plain (not Fold)
// receive halves of at least hoistFloor bytes, in op order; post points
// never decrease, none is after its op or before the op after a smaller
// or Fold receive (which runs at its op); no op in [post, i) or
// (i, done) touches the receive's bytes, op done does (or done is the
// end), and no earlier managed receive of any of them is still in
// flight at post; order lists every managed receive by completion
// point. It returns how many managed receives complete after a later
// op has run.
func checkManaged(t *testing.T, where string, s *rankOps) (late int) {
	t.Helper()
	ops, k, floor := s.ops, 0, 0
	for i := range ops {
		op := &ops[i]
		if op.Kind == sched.OpSend {
			continue
		}
		if op.Fold || op.RecvLen < hoistFloor {
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

// stayReason writes out the late-send rule for the send half of ops[i]:
// it is late exactly when it is at least hoistFloor bytes, a later op
// receives, and no later op receives into any of its bytes. It returns
// "" for a late send, else the first reason the send stays at its op.
func stayReason(ops []sched.Op, i int) string {
	op, recvAfter, overwritten := &ops[i], false, false
	for j := i + 1; j < len(ops); j++ {
		if r := &ops[j]; r.Kind != sched.OpSend {
			recvAfter = true
			overwritten = overwritten || (r.RecvLen > 0 && op.SendLen > 0 &&
				r.RecvOff < op.SendOff+op.SendLen && op.SendOff < r.RecvOff+r.RecvLen)
		}
	}
	switch {
	case op.SendLen < hoistFloor:
		return "small"
	case !recvAfter:
		return "trailing"
	case overwritten:
		return "overwritten"
	}
	return ""
}

// checkLate holds what markLate computed for s.ops to the rule
// (stayReason), op by op, and counts why each other send stays.
func checkLate(t *testing.T, where string, s *rankOps) (stay lateStays) {
	t.Helper()
	ops, k := s.ops, 0
	for i := range ops {
		op := &ops[i]
		if op.Kind == sched.OpRecv {
			continue
		}
		switch stayReason(ops, i) {
		case "small":
			stay.small++
		case "trailing":
			stay.trailing++
		case "overwritten":
			stay.overwritten++
		default:
			if k == len(s.late) || s.late[k] != i {
				t.Fatalf("%s: op %d (%s) sends late by the rule, markLate has %v", where, i, op, s.late)
			}
			k++
			continue
		}
		if k < len(s.late) && s.late[k] == i {
			t.Fatalf("%s: op %d (%s) marked late against the rule", where, i, op)
		}
	}
	if k != len(s.late) {
		t.Fatalf("%s: markLate lists %v, the rule %d of them", where, s.late, k)
	}
	return stay
}

// lateStays counts the sends that stay at their op, by the first reason
// the rule gives.
type lateStays struct{ small, trailing, overwritten int }

// TestLateSendRule checks which send halves compile marks late
// (checkLate), over TestHoistRule's grid: every registry row on every
// rank of p ∈ {2..17, 64}, several roots, chunk sizes on both sides of
// the floor and segment sizes. Every reason to stay at the op shows up
// in it: a broadcast root's sends (a tree's or a ring's root receives
// nothing) and a rank's sends after its last receive, sends the
// non-elided ring later receives into again, and sends below the floor. At np 10, every
// non-root ring-opt send before the rank's last receive is late.
func TestLateSendRule(t *testing.T) {
	procs := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}
	var stay lateStays
	lates, rootSends, nativeOverwritten := 0, 0, 0
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
							s.markLate()
							where := fmt.Sprintf("%s p=%d root=%d n=%d seg=%d rank %d", r.Name, p, root, n, seg, rank)
							st := checkLate(t, where, &s)
							stay.small += st.small
							stay.trailing += st.trailing
							stay.overwritten += st.overwritten
							lates += len(s.late)
							if rank == root {
								rootSends += st.trailing
							}
							if r.Name == tune.RingNative {
								nativeOverwritten += st.overwritten
							}
						}
					}
				}
			}
		}
	}
	if lates == 0 || stay.small == 0 || stay.trailing == 0 || stay.overwritten == 0 || rootSends == 0 || nativeOverwritten == 0 {
		t.Fatalf("the grid marked %d sends late and kept %+v at their op (%d of the roots', %d overwritten in the non-elided ring)",
			lates, stay, rootSends, nativeOverwritten)
	}

	const p = 10
	for _, chunk := range []int{hoistFloor, 256 << 10 / p} {
		for rank := 1; rank < p; rank++ {
			var s rankOps
			s.ops = core.BcastOptOps(s.ops, rank, p, 0, p*chunk, 0)
			s.markLate()
			last := -1
			for i, op := range s.ops {
				if op.Kind != sched.OpSend {
					last = i
				}
			}
			k := 0
			for i, op := range s.ops[:last] {
				if op.Kind == sched.OpRecv {
					continue
				}
				if k == len(s.late) || s.late[k] != i {
					t.Fatalf("ring-opt p=%d n=%d rank %d: op %d (%s) is before the last receive, yet not late", p, p*chunk, rank, i, &op)
				}
				k++
			}
		}
	}
}

// hidePresend wraps a communicator whose Presend declines every send:
// each runs at its op.
type hidePresend struct{ mpi.Comm }

func (hidePresend) Presend([]byte, int, int) bool { return false }

// TestLateSendsBoundStaging: np 10 ranks run 50 back-to-back per-call
// ring-opt broadcasts of 256 KiB, the paper's mmsg-npof2 case. However
// the ranks interleave, a rank stages only sends that run at its op, so
// no rank may stage more bytes than those sends carry — none at all on
// the ranks that send everything late. Staging the late sends too, as
// every eager send within the credit window once was, breaks the bound.
func TestLateSendsBoundStaging(t *testing.T) {
	const (
		p      = 10
		n      = 256 << 10
		rounds = 50
	)
	bound := make([]int64, p)
	for rank := range bound {
		ops := core.BcastOptOps(nil, rank, p, 0, n, 0)
		for i, op := range ops {
			if op.Kind != sched.OpRecv && stayReason(ops, i) != "" {
				bound[rank] += rounds * int64(op.SendLen)
			}
		}
	}
	m := metrics.New(p, 0)
	want := pattern(n)
	err := engine.RunWith(engine.Options{NP: p, Metrics: m, Timeout: 60 * time.Second}, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == 0 {
			copy(buf, want)
		}
		for round := 0; round < rounds; round++ {
			if err := Broadcast(c, buf, 0, Options{Algorithm: tune.RingOpt}); err != nil {
				return err
			}
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: first diff at %d", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, b := range bound {
		if got := m.Load(rank, metrics.StagedBytes); got > b {
			t.Errorf("rank %d staged %d bytes in %d broadcasts, more than the %d bytes of its sends that run at their op", rank, got, rounds, b)
		}
	}
}

// failLastRecv wraps a rank's communicator: it declines early receives,
// so each runs at its op through Recv or Sendrecv, fails the rank's last
// receive op without running it, and counts the late sends started and
// not yet waited for.
type failLastRecv struct {
	mpi.Comm
	recvs, left, late int // receive ops to go; late sends in flight, and in all
}

var errLastRecv = errors.New("the last receive fails")

// last counts a receive op and reports whether it is the last.
func (f *failLastRecv) last() bool {
	f.recvs--
	return f.recvs == 0
}

func (f *failLastRecv) Prepost(req mpi.Request, _ []byte, _, _ int) (mpi.Request, bool) {
	return req, false
}

func (f *failLastRecv) Recv(buf []byte, from, tag int) (mpi.Status, error) {
	if f.last() {
		return mpi.Status{}, errLastRecv
	}
	return f.Comm.Recv(buf, from, tag)
}

func (f *failLastRecv) Sendrecv(sbuf []byte, to, stag int, rbuf []byte, from, rtag int) (mpi.Status, error) {
	if f.last() {
		return mpi.Status{}, errLastRecv
	}
	return f.Comm.Sendrecv(sbuf, to, stag, rbuf, from, rtag)
}

func (f *failLastRecv) Presend(buf []byte, to, tag int) bool {
	ok := f.Comm.Presend(buf, to, tag)
	if ok {
		f.left++
		f.late++
	}
	return ok
}

func (f *failLastRecv) WaitPresends() error {
	f.left = 0
	return f.Comm.WaitPresends()
}

// TestLateSendsWaitedOnError: a rank whose op fails after it started
// late sends still waits for them before the broadcast returns its
// error — until then a receiver may copy out of the buffer the caller
// gets back.
func TestLateSendsWaitedOnError(t *testing.T) {
	const (
		p    = 4
		n    = p * 2 * hoistFloor
		fail = 2
	)
	var s rankOps
	s.ops = core.BcastOptOps(s.ops, fail, p, 0, n, 0)
	s.markLate()
	recvs := 0
	for _, op := range s.ops {
		if op.Kind != sched.OpSend {
			recvs++
		}
	}
	if len(s.late) == 0 {
		t.Fatalf("rank %d sends nothing late — the case is not exercised", fail)
	}
	left, late := -1, 0
	err := engine.RunWith(engine.Options{NP: p, Timeout: 30 * time.Second, DeadlockAfter: 200 * time.Millisecond}, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() != fail {
			return Broadcast(c, buf, 0, Options{Algorithm: tune.RingOpt})
		}
		f := &failLastRecv{Comm: c, recvs: recvs}
		err := Broadcast(f, buf, 0, Options{Algorithm: tune.RingOpt})
		left, late = f.left, f.late
		return err
	})
	if !errors.Is(err, errLastRecv) {
		t.Fatalf("Run = %v, want the failed receive's error", err)
	}
	if late != len(s.late) {
		t.Fatalf("rank %d started %d late sends before its last receive, want %d", fail, late, len(s.late))
	}
	if left != 0 {
		t.Fatalf("the broadcast returned its error with %d late sends in flight", left)
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
// neighbour among them — is posted after the tail's op. With eager
// messages and with every message rendezvous, the runs that post
// receives early, and those that also send late, deliver the bytes and
// the traffic of the run that does neither.
func TestHoistStopsAtBelowFloorTail(t *testing.T) {
	const (
		p     = 4
		chunk = hoistFloor + 1000 // one full segment and a 1000-byte tail
		n     = p * chunk
	)
	d := tune.Decision{Algorithm: tune.RingOptSeg, SegSize: hoistFloor}
	lates := 0
	for rank := 0; rank < p; rank++ {
		var s rankOps
		s.ops = core.BcastOptSegOps(s.ops, rank, p, 0, n, d.SegSize)
		s.manage()
		s.markLate()
		lates += len(s.late)
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

	if lates == 0 {
		t.Fatal("no send is late — the case is not exercised")
	}

	want := pattern(n)
	var stats []trace.Stats
	for _, rdv := range []bool{false, true} {
		for _, hide := range []struct{ recvs, sends bool }{{true, true}, {false, true}, {false, false}} {
			stats = append(stats, tailRun(t, p, n, d, want, rdv, hide.recvs, hide.sends))
			if k := len(stats) - 1; !reflect.DeepEqual(stats[k], stats[0]) {
				t.Fatalf("early posting or late sending changed the traffic (rdv %v, declined %+v):\nwith:    %+v\nwithout: %+v", rdv, hide, stats[k], stats[0])
			}
		}
	}
	if stats[0].Recvs != stats[0].Total.Messages {
		t.Fatalf("recvs=%d != msgs=%d", stats[0].Recvs, stats[0].Total.Messages)
	}
}

// tailRun broadcasts want three times with decision d on a traced world
// of p ranks, eager or every message rendezvous, its communicators
// declining early receives, late sends, or both, and returns the traffic.
func tailRun(t *testing.T, p, n int, d tune.Decision, want []byte, rdv, hideRecvs, hideSends bool) trace.Stats {
	t.Helper()
	opts := engine.Options{NP: p, Timeout: 30 * time.Second}
	if rdv {
		opts.EagerLimit = -1
	}
	col := trace.NewCollector()
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		if hideRecvs {
			tc = hidePrepost{tc}
		}
		if hideSends {
			tc = hidePresend{tc}
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
		t.Fatalf("rdv %v, declined receives %v, sends %v: %v", rdv, hideRecvs, hideSends, err)
	}
	return col.Stats()
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

// TestHoistSkipsFoldReceives runs Reduce and Allreduce of 4096 float64s
// (32 KiB, above hoistFloor) at p ∈ {2, 3, 5, 8, 13}: manage never
// hoists a Fold receive, which must read the bytes it combines into, so
// a reduction manages no receive and an allreduce rank only its
// broadcast-phase one; and the results equal, bit for bit, an oracle
// that adds the vectors in the order the generated ops fold them.
func TestHoistSkipsFoldReceives(t *testing.T) {
	const m = 4096
	input := func(rank int) []float64 {
		rng := rand.New(rand.NewPCG(uint64(rank), m))
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Ldexp(1, rng.IntN(60)-30)
		}
		return v
	}
	for _, p := range []int{2, 3, 5, 8, 13} {
		for _, root := range []int{0, p - 1} {
			for rank := 0; rank < p; rank++ {
				for _, e := range []struct {
					name    string
					emit    sched.Emitter
					root    int
					managed int
				}{{"reduce", core.ReduceOps, root, 0}, {"allreduce", allreduceOps, 0, min(rank, 1)}} {
					var s rankOps
					s.ops = e.emit(s.ops, rank, p, e.root, 8*m, 0)
					s.manage()
					where := fmt.Sprintf("%s p=%d root=%d rank %d", e.name, p, e.root, rank)
					checkManaged(t, where, &s)
					if len(s.recvs) != e.managed {
						t.Fatalf("%s: %d receives managed, want %d", where, len(s.recvs), e.managed)
					}
				}
			}
			want := foldOracle(sched.Generate("reduce", core.ReduceOps, p, root, 8*m, 0), input)
			wantAll := foldOracle(sched.Generate("reduce", core.ReduceOps, p, 0, 8*m, 0), input)
			err := engine.Run(p, func(c mpi.Comm) error {
				r := c.Rank()
				out := make([]float64, m)
				if err := uncached.ReduceFloat64(c, input(r), out, OpSum, root); err != nil {
					return err
				}
				if r == root {
					if err := sameBits("reduce", r, out, want); err != nil {
						return err
					}
				}
				if err := uncached.AllreduceFloat64(c, input(r), out, OpSum); err != nil {
					return err
				}
				return sameBits("allreduce", r, out, wantAll)
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

// foldOracle returns what the root of pr, a reduction tree whose ranks
// send once, last, ends with: each rank's input with the vectors of the
// ranks it receives from added in, in its op order.
func foldOracle(pr *sched.Program, input func(rank int) []float64) []float64 {
	var reduced func(r int) []float64
	reduced = func(r int) []float64 {
		acc := input(r)
		for _, op := range pr.Ranks[r] {
			if op.Kind == sched.OpRecv {
				for i, v := range reduced(op.From) {
					acc[i] += v
				}
			}
		}
		return acc
	}
	return reduced(pr.Root)
}

// sameBits compares a rank's result with the oracle's bit for bit.
func sameBits(name string, rank int, got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s rank %d: element %d = %v, the ops' fold order gives %v", name, rank, i, got[i], want[i])
		}
	}
	return nil
}
