package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// wirePattern fills a payload deterministically from a seed.
func wirePattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*37 + i*11)
	}
	return b
}

// wireRing is a rank body exercising both wire protocols: a blocking
// Sendrecv ring at an eager size and a rendezvous size, then a ring at a
// rendezvous size whose receives are posted before their sends start.
// EagerLimit in the world options must sit between eagerSz and rdvSz.
const (
	wireEagerSz = 128
	wireRdvSz   = 8 << 10
	wireLimit   = 1 << 10
)

func wireRing(c mpi.Comm) error {
	me, np := c.Rank(), c.Size()
	next, prev := (me+1)%np, (me+np-1)%np
	for _, sz := range []int{wireEagerSz, wireRdvSz} {
		out := wirePattern(me, sz)
		in := make([]byte, sz)
		st, err := c.Sendrecv(out, next, 7, in, prev, 7)
		if err != nil {
			return err
		}
		if st.Count != sz {
			return fmt.Errorf("rank %d: sendrecv count %d, want %d", me, st.Count, sz)
		}
		if !bytes.Equal(in, wirePattern(prev, sz)) {
			return fmt.Errorf("rank %d: %d-byte ring payload corrupted", me, sz)
		}
	}
	out := wirePattern(me+100, wireRdvSz)
	in := make([]byte, wireRdvSz)
	rr := irecv(c, in, prev, 9)
	sr := isend(c, out, next, 9)
	if _, err := rr.Wait(); err != nil {
		return err
	}
	if _, err := sr.Wait(); err != nil {
		return err
	}
	if !bytes.Equal(in, wirePattern(prev+100, wireRdvSz)) {
		return fmt.Errorf("rank %d: nonblocking ring payload corrupted", me)
	}
	return nil
}

// TestSelfUDPWiredWorld boots one world whose transport force-wires
// every rank through its own UDP socket: all traffic really crosses the
// datagram path, in one process, and results must be correct with wire
// counters lit.
func TestSelfUDPWiredWorld(t *testing.T) {
	tr, err := transport.SelfUDP(4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	m := metrics.New(4, 0)
	w, err := NewWorld(Options{
		NP: 4, EagerLimit: wireLimit, Timeout: 30 * time.Second,
		Transport: tr, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.trans.(*transport.UDP); !ok {
		t.Errorf("world transport is a %T, want *transport.UDP", w.trans)
	}
	// Two sequential runs: world reuse must survive the wire path.
	for run := 0; run < 2; run++ {
		if err := w.Run(wireRing); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	s := m.Snapshot()
	if s.WireDatagramsSent == 0 || s.WireDatagramsRecv == 0 {
		t.Errorf("wire counters dark on a force-wired world: %+v", s)
	}
	if s.EagerSends == 0 || s.RdvSends == 0 {
		t.Errorf("both protocols should have crossed the wire: eager=%d rdv=%d", s.EagerSends, s.RdvSends)
	}
}

// TestSplitHostedWorlds runs one 6-rank world as two cooperating
// "processes" in-process: world A hosts ranks 0–2, world B hosts 3–5,
// each with its own UDP socket, addressing the other's. The ring body
// must complete with correct bytes on every rank across both worlds —
// the same structure `bcast soak` runs across real OS processes.
func TestSplitHostedWorlds(t *testing.T) {
	const np = 6
	connA, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	connB, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peersTo := func(addr net.Addr, ranks ...int) map[int]string {
		p := map[int]string{}
		for _, r := range ranks {
			p[r] = addr.String()
		}
		return p
	}
	trA, err := transport.NewUDP(transport.UDPConfig{
		NP: np, Hosted: []int{0, 1, 2}, Conn: connA,
		Peers: peersTo(connB.LocalAddr(), 3, 4, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := transport.NewUDP(transport.UDPConfig{
		NP: np, Hosted: []int{3, 4, 5}, Conn: connB,
		Peers: peersTo(connA.LocalAddr(), 0, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()

	mkWorld := func(tr transport.Transport) *World {
		w, err := NewWorld(Options{
			NP: np, EagerLimit: wireLimit, Timeout: 30 * time.Second, Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wa, wb := mkWorld(trA), mkWorld(trB)

	for run := 0; run < 2; run++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, w := range []*World{wa, wb} {
			wg.Add(1)
			go func(i int, w *World) {
				defer wg.Done()
				errs[i] = w.Run(wireRing)
			}(i, w)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("run %d, world %d: %v", run, i, err)
			}
		}
	}
}

// TestWiredWorldUnhostedRanksSkipBody: a split-hosted world must invoke
// fn only for its hosted ranks.
func TestWiredWorldUnhostedRanksSkipBody(t *testing.T) {
	const np = 4
	tr, err := transport.NewUDP(transport.UDPConfig{
		NP: np, Hosted: []int{1, 3},
		Peers: map[int]string{0: "127.0.0.1:9", 2: "127.0.0.1:9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	w, err := NewWorld(Options{NP: np, Timeout: 10 * time.Second, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ran := map[int]bool{}
	err = w.Run(func(c mpi.Comm) error {
		mu.Lock()
		ran[c.Rank()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 || !ran[1] || !ran[3] {
		t.Errorf("fn ran on ranks %v, want exactly {1, 3}", ran)
	}
}

// TestChanTransportDefaultUnwired: the default world must report the
// chan transport and keep strictness checking active (an unconsumed
// message still fails the run) — the byte-identical pre-seam behavior.
func TestChanTransportDefaultUnwired(t *testing.T) {
	w, err := NewWorld(Options{NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.trans.(transport.Chan); !ok {
		t.Errorf("world transport is a %T, want transport.Chan", w.trans)
	}
	err = w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte{1}, 1, 5) // never received
		}
		return nil
	})
	if err == nil {
		t.Error("strictness must still fail an unconsumed message on the chan transport")
	}
}

// wiredPair boots a two-rank world whose every message crosses a real
// loopback socket.
func wiredPair(t *testing.T) *World {
	t.Helper()
	const np = 2
	tr, err := transport.SelfUDP(np)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	w, err := NewWorld(Options{NP: np, EagerLimit: wireLimit, Timeout: 30 * time.Second, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// largeGets counts bufpool gets of buffers big enough for a payload of
// at least wireLimit bytes (an empty message's reassembly buffer is not).
func largeGets() (n int64) {
	classes, oversize, _ := bufpool.Stats()
	for _, c := range classes {
		if c.Size >= wireLimit {
			n += c.Gets
		}
	}
	return n + oversize
}

// TestRemotePostedBeforeArrivalPlacesDirectly: a rendezvous message
// whose receive is already posted, with a buffer that fits exactly,
// crosses the wire without touching bufpool — the sender's buffer is
// written to the socket as it lies, and the fragments land in the
// receiver's buffer as they arrive. An eager message still pays its one
// copy per fragment on the way out and nothing on the way in.
func TestRemotePostedBeforeArrivalPlacesDirectly(t *testing.T) {
	w := wiredPair(t)
	const rdvSz, eagerSz = 200 << 10, wireLimit
	for _, tc := range []struct {
		name     string
		size     int
		wantGets int64
	}{
		{"rdv", rdvSz, 0},
		{"eager", eagerSz, 1},
	} {
		posted := make(chan struct{})
		var before, after int64
		err := w.Run(func(c mpi.Comm) error {
			if c.Rank() == 1 {
				in := make([]byte, tc.size)
				req := irecv(c, in, 0, 3)
				before = largeGets()
				close(posted)
				st, err := req.Wait()
				after = largeGets()
				if err != nil {
					return err
				}
				if st.Count != tc.size || st.Source != 0 || st.Tag != 3 || !bytes.Equal(in, wirePattern(5, tc.size)) {
					return fmt.Errorf("placed receive: status %+v, payload intact=%v", st, bytes.Equal(in, wirePattern(5, tc.size)))
				}
				// Tell rank 0 the numbers are taken (and keep the world strict).
				return c.Send(nil, 0, 4)
			}
			<-posted
			if err := c.Send(wirePattern(5, tc.size), 1, 3); err != nil {
				return err
			}
			_, err := c.Recv(nil, 1, 4)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := after - before; got != tc.wantGets {
			t.Errorf("%s: %d-byte message posted before arrival cost %d payload-sized bufpool gets, want %d",
				tc.name, tc.size, got, tc.wantGets)
		}
	}
}

// TestRemoteArrivalBeforePost: a message that finds no receive posted is
// reassembled by the transport, parks in the unexpected queue, and is
// copied out by the receive that comes later — which, for a rendezvous,
// is also what lets the sender go.
func TestRemoteArrivalBeforePost(t *testing.T) {
	w := wiredPair(t)
	for _, size := range []int{wireEagerSz, wireRdvSz, 100 << 10} {
		err := w.Run(func(c mpi.Comm) error {
			if c.Rank() == 0 {
				return c.Send(wirePattern(size, size), 1, 6)
			}
			for w.eps[1].pendingArrivals() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			in := make([]byte, size)
			st, err := c.Recv(in, mpi.AnySource, mpi.AnyTag)
			if err != nil {
				return err
			}
			if st.Count != size || st.Source != 0 || st.Tag != 6 || !bytes.Equal(in, wirePattern(size, size)) {
				return fmt.Errorf("%d-byte unexpected message: status %+v", size, st)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// claimHarness drives the world's transport handler by hand, the way a
// transport would, against receives a rank body really posted: the
// deterministic view of Claim, Place and Deliver. body runs on rank 0 of
// a wired two-rank world with the handler to drive; rank 1 idles.
func claimHarness(t *testing.T, body func(c mpi.Comm, h remoteHandler) error) error {
	t.Helper()
	w := wiredPair(t)
	return w.Run(func(c mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		return body(c, remoteHandler{w})
	})
}

// inbound is a message from world rank 1 to rank 0 on c, as its first
// fragment's header describes it.
func inbound(c mpi.Comm, kind transport.Kind, tag int, id uint64) transport.Message {
	return transport.Message{
		Ctx: c.(*comm).ctx, Src: 1, SrcWorld: 1, Dst: 0, Tag: tag, Kind: kind, MsgID: id,
	}
}

// TestRemoteClaimMatching pins what Claim takes and what it leaves:
// wildcard receives are claimed and report the real source and tag; a
// buffer that does not fit exactly is left posted (too short: the copy
// path reports the truncation as ever; too long: the copy path fills
// its head); and a claim consumes the first matching receive only.
func TestRemoteClaimMatching(t *testing.T) {
	err := claimHarness(t, func(c mpi.Comm, h remoteHandler) error {
		const size = 6000
		payload := wirePattern(3, size)
		deliverPooled := func(m transport.Message) {
			m.Buf = bufpool.Get(size)
			m.Data = m.Buf.B
			copy(m.Data, payload)
			h.Deliver(m)
		}

		// Wildcards.
		in := make([]byte, size)
		req := irecv(c, in, mpi.AnySource, mpi.AnyTag)
		m := inbound(c, transport.Eager, 21, 0)
		sink := h.Claim(m, size)
		if sink == nil {
			return fmt.Errorf("exactly fitting wildcard receive not claimed")
		}
		if n := h.w.eps[0].pendingRecvs(); n != 0 {
			return fmt.Errorf("claimed receive still posted (%d in the queue)", n)
		}
		if !sink.Place(0, payload[:4000]) || !sink.Place(4000, payload[4000:]) {
			return fmt.Errorf("Place refused on a live world")
		}
		if len(req.pr.done) > 0 {
			return fmt.Errorf("receive completed before the last fragment was delivered")
		}
		m.Sink = sink
		h.Deliver(m)
		st, err := req.Wait()
		if err != nil || st.Source != 1 || st.Tag != 21 || st.Count != size || !bytes.Equal(in, payload) {
			return fmt.Errorf("claimed wildcard receive: status %+v err %v", st, err)
		}

		// Too short: not claimed, truncation reported by the copy path.
		short := make([]byte, size-1)
		req = irecv(c, short, 1, 22)
		m = inbound(c, transport.Eager, 22, 0)
		if h.Claim(m, size) != nil {
			return fmt.Errorf("truncating receive was claimed")
		}
		deliverPooled(m)
		if st, err = req.Wait(); !errors.Is(err, mpi.ErrTruncate) || st.Count != size-1 || !bytes.Equal(short, payload[:size-1]) {
			return fmt.Errorf("short buffer: status %+v err %v, want ErrTruncate with the head copied", st, err)
		}

		// Too long: not claimed either, completed by copy.
		long := make([]byte, size+1)
		req = irecv(c, long, 1, 23)
		m = inbound(c, transport.Eager, 23, 0)
		if h.Claim(m, size) != nil {
			return fmt.Errorf("oversized receive was claimed")
		}
		deliverPooled(m)
		if st, err = req.Wait(); err != nil || st.Count != size || !bytes.Equal(long[:size], payload) {
			return fmt.Errorf("long buffer: status %+v err %v", st, err)
		}

		// Matching order: the first matching receive decides, even when a
		// later one would fit.
		req = irecv(c, short, 1, 24)
		req2 := irecv(c, in, 1, 24)
		m = inbound(c, transport.Eager, 24, 0)
		if h.Claim(m, size) != nil {
			return fmt.Errorf("claim skipped the first matching receive for a later, fitting one")
		}
		deliverPooled(m)
		if _, err = req.Wait(); !errors.Is(err, mpi.ErrTruncate) {
			return fmt.Errorf("first matching receive: err %v, want ErrTruncate", err)
		}
		deliverPooled(m)
		_, err = req2.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRemoteZeroLength: an empty message is never offered for a claim;
// delivered as it always was, it completes an empty receive or waits in
// the unexpected queue.
func TestRemoteZeroLength(t *testing.T) {
	w := wiredPair(t)
	for _, limit := range []int{wireLimit, -1} { // eager, then forced rendezvous
		w.eagerLimit = limit
		err := w.Run(func(c mpi.Comm) error {
			peer := 1 - c.Rank()
			for round := 0; round < 3; round++ {
				st, err := c.Sendrecv(nil, peer, 8, nil, peer, 8)
				if err != nil {
					return err
				}
				if st.Count != 0 || st.Source != peer {
					return fmt.Errorf("empty sendrecv: status %+v", st)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("eager limit %d: %v", limit, err)
		}
	}
}

// TestRemoteInterleavedFlows: two flows place fragments of two messages
// for the same rank turn and turn about. Each claim took its own
// receive, so neither disturbs the other, and a rendezvous completion
// sends its RdvAck without a posted receive being consumed twice.
func TestRemoteInterleavedFlows(t *testing.T) {
	err := claimHarness(t, func(c mpi.Comm, h remoteHandler) error {
		const size, frag = 9000, 3000
		pa, pb := wirePattern(1, size), wirePattern(2, size)
		ina, inb := make([]byte, size), make([]byte, size)
		ra := irecv(c, ina, 1, 31)
		rb := irecv(c, inb, 1, 32)
		ma, mb := inbound(c, transport.Rdv, 31, 9001), inbound(c, transport.Eager, 32, 0)
		// b's first fragment arrives first, though a's receive is older.
		mb.Sink = h.Claim(mb, size)
		ma.Sink = h.Claim(ma, size)
		if ma.Sink == nil || mb.Sink == nil {
			return fmt.Errorf("claims: a=%v b=%v, want both", ma.Sink, mb.Sink)
		}
		for off := 0; off < size; off += frag {
			if !mb.Sink.Place(off, pb[off:off+frag]) || !ma.Sink.Place(off, pa[off:off+frag]) {
				return fmt.Errorf("Place refused at offset %d", off)
			}
		}
		h.Deliver(ma)
		h.Deliver(mb)
		for _, r := range []struct {
			req  mpi.Request
			in   []byte
			want []byte
			tag  int
		}{{ra, ina, pa, 31}, {rb, inb, pb, 32}} {
			st, err := r.req.Wait()
			if err != nil || st.Tag != r.tag || st.Count != size || !bytes.Equal(r.in, r.want) {
				return fmt.Errorf("interleaved message tag %d: status %+v err %v", r.tag, st, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRemoteAbortedWorldTakesNoPayloads: once the world has aborted its
// receivers are gone, so a half-placed message writes no further
// fragment, a new message is not claimed, and a delivered one is
// dropped — its pooled payload released, nothing parked, nothing copied
// into a receive that was left posted.
func TestRemoteAbortedWorldTakesNoPayloads(t *testing.T) {
	const size, half = 8000, 4000
	payload := wirePattern(9, size)
	in, late := make([]byte, size), make([]byte, size)
	var w *World
	var sink transport.Sink
	var m transport.Message
	err := claimHarness(t, func(c mpi.Comm, h remoteHandler) error {
		w = h.w
		irecv(c, in, 1, 41)
		m = inbound(c, transport.Rdv, 41, 77)
		if sink = h.Claim(m, size); sink == nil {
			return fmt.Errorf("receive not claimed")
		}
		if !sink.Place(0, payload[:half]) {
			return fmt.Errorf("Place refused on a live world")
		}
		irecv(c, late, 1, 42)
		return errors.New("rank 0 gives up")
	})
	if err == nil {
		t.Fatal("the run was meant to abort")
	}
	h := remoteHandler{w}
	if sink.Place(half, payload[half:]) {
		t.Error("Place accepted a fragment for an aborted world")
	}
	if !bytes.Equal(in[:half], payload[:half]) || !bytes.Equal(in[half:], make([]byte, size-half)) {
		t.Error("the claimed buffer was written after the abort")
	}
	m2 := m
	m2.Tag = 42
	if h.Claim(m2, size) != nil {
		t.Error("an aborted world claimed a receive")
	}
	m2.Buf = bufpool.Get(size)
	m2.Data = m2.Buf.B
	copy(m2.Data, payload)
	putsBefore := poolPuts()
	h.Deliver(m2)
	if poolPuts() != putsBefore+1 {
		t.Error("an aborted world did not release the payload it was delivered")
	}
	if !bytes.Equal(late, make([]byte, size)) {
		t.Error("a late message was copied into a receive whose caller had returned")
	}
	if n := w.eps[0].pendingArrivals(); n != 0 {
		t.Errorf("an aborted world parked %d late messages", n)
	}
}

// TestRemoteWindowPlacement is the kernel's way into a claimed receive.
// Window hands out the receive buffer itself; a fragment announced from
// there is in place already — Place charges it to WireDirectBytes and
// moves nothing — while one announced from anywhere else, another part
// of the same buffer included, is copied and charged nothing. Once the
// world has aborted there is no window to be had, and Place still
// refuses.
func TestRemoteWindowPlacement(t *testing.T) {
	const size, half = 8000, 4000
	payload := wirePattern(4, size)
	in, late := make([]byte, size), make([]byte, size)
	var w *World
	var sink transport.Sink
	err := claimHarness(t, func(c mpi.Comm, h remoteHandler) error {
		w = h.w
		direct := func() int64 { return w.metrics.Snapshot().WireDirectBytes }
		req := irecv(c, in, 1, 51)
		m := inbound(c, transport.Rdv, 51, 88)
		if m.Sink = h.Claim(m, size); m.Sink == nil {
			return fmt.Errorf("receive not claimed")
		}
		// The second half arrives first in the first half's window — a
		// misprediction — and is moved up to where it belongs.
		win := m.Sink.Window(0, half)
		if len(win) != half || cap(win) != half || &win[0] != &in[0] {
			return fmt.Errorf("Window(0, %d) is %d bytes (cap %d), not the head of the receive buffer", half, len(win), cap(win))
		}
		copy(win, payload[half:])
		if !m.Sink.Place(half, win) || !bytes.Equal(in[half:], payload[half:]) {
			return fmt.Errorf("fragment in the wrong window was not copied to its place")
		}
		if n := direct(); n != 0 {
			return fmt.Errorf("a copied fragment was charged as %d direct bytes", n)
		}
		// The first half then arrives in its own window.
		copy(win, payload[:half])
		if !m.Sink.Place(0, win) {
			return fmt.Errorf("Place refused on a live world")
		}
		if n := direct(); n != half {
			return fmt.Errorf("a fragment placed by the kernel was charged as %d direct bytes, want %d", n, half)
		}
		h.Deliver(m)
		if st, err := req.Wait(); err != nil || st.Count != size || !bytes.Equal(in, payload) {
			return fmt.Errorf("placed receive: status %+v err %v, payload intact=%v", st, err, bytes.Equal(in, payload))
		}

		irecv(c, late, 1, 52)
		if sink = h.Claim(inbound(c, transport.Rdv, 52, 89), size); sink == nil {
			return fmt.Errorf("second receive not claimed")
		}
		return errors.New("rank 0 gives up")
	})
	if err == nil {
		t.Fatal("the run was meant to abort")
	}
	if win := sink.Window(0, half); win != nil {
		t.Errorf("an aborted world handed out a %d-byte window of a receive whose caller had returned", len(win))
	}
	if sink.Place(0, late[:half]) {
		t.Error("Place accepted a fragment, in place or not, for an aborted world")
	}
	if n := w.metrics.Snapshot().WireDirectBytes; n != half {
		t.Errorf("direct bytes = %d after the abort, want the %d placed before it", n, half)
	}
}

// poolPuts sums bufpool's releases over every class.
func poolPuts() (puts int64) {
	classes, _, _ := bufpool.Stats()
	for _, c := range classes {
		puts += c.Puts
	}
	return puts
}

// unpinSpy is a UDP transport that records the Unpin calls it forwards.
type unpinSpy struct {
	*transport.UDP
	mu   sync.Mutex
	dsts []int
}

func (s *unpinSpy) Unpin(dst int, msgID uint64) {
	s.mu.Lock()
	s.dsts = append(s.dsts, dst)
	s.mu.Unlock()
	s.UDP.Unpin(dst, msgID)
}

// TestRemoteAbandonedRendezvousLeavesNothing: a rendezvous sender that
// stops waiting — in Send, or in a Wait begun before the abort or
// after it — first
// takes its buffer back from the transport and leaves no entry in the
// world's correlation map (the nonblocking path used to leak its entry
// for the life of the world).
func TestRemoteAbandonedRendezvousLeavesNothing(t *testing.T) {
	for _, how := range []string{"Send", "isend+Wait", "isend+Wait after the abort"} {
		udp, err := transport.SelfUDP(2)
		if err != nil {
			t.Fatal(err)
		}
		defer udp.Close()
		spy := &unpinSpy{UDP: udp}
		w, err := NewWorld(Options{NP: 2, EagerLimit: wireLimit, Timeout: 30 * time.Second, Transport: spy})
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan struct{})
		err = w.Run(func(c mpi.Comm) error {
			if c.Rank() == 1 {
				// Give up only once the send is under way: a send that
				// finds the world aborted on entry pins nothing.
				<-sent
				for pending := 0; pending == 0; time.Sleep(50 * time.Microsecond) {
					pending = w.pendingRdv()
				}
				return errors.New("rank 1 never receives")
			}
			buf := make([]byte, wireRdvSz)
			if how == "Send" {
				close(sent)
				return c.Send(buf, 1, 5)
			}
			req := isend(c, buf, 1, 5)
			close(sent)
			for how == "isend+Wait after the abort" && !closed(w.aborted) {
				time.Sleep(50 * time.Microsecond)
			}
			_, err = req.Wait()
			return err
		})
		if err == nil {
			t.Fatalf("%s: run did not abort", how)
		}
		if n := w.pendingRdv(); n != 0 {
			t.Errorf("%s: %d rendezvous still registered after the sender gave up", how, n)
		}
		if len(spy.dsts) != 1 || spy.dsts[0] != 1 {
			t.Errorf("%s: Unpin calls to ranks %v, want exactly one, to rank 1", how, spy.dsts)
		}
	}
}

// pendingRdv counts the remote rendezvous sends registered and not yet
// acknowledged or abandoned.
func (w *World) pendingRdv() int {
	w.remoteMu.Lock()
	defer w.remoteMu.Unlock()
	return len(w.remoteRdv)
}

// TestRemoteSendCancelReleasesPin: a blocking rendezvous Send to a wired
// rank is isend + Wait, and Wait's cancel arm is where it ends when the
// run's context is cancelled under it: the caller gets the cause, and
// the transport has given the buffer back first.
func TestRemoteSendCancelReleasesPin(t *testing.T) {
	udp, err := transport.SelfUDP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	spy := &unpinSpy{UDP: udp}
	w, err := NewWorld(Options{NP: 2, EagerLimit: wireLimit, Timeout: 30 * time.Second, Transport: spy})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var sendErr error // written by rank 0, read after RunContext returns
	err = w.RunContext(ctx, func(c mpi.Comm) error {
		if c.Rank() == 1 {
			// Never receives; cancels once the send is pinned and pending.
			for w.pendingRdv() == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			cancel(cause)
			return nil
		}
		sendErr = c.Send(make([]byte, wireRdvSz), 1, 5)
		return sendErr
	})
	if !errors.Is(err, cause) {
		t.Errorf("run error does not wrap the cancel cause: %v", err)
	}
	if !errors.Is(sendErr, mpi.ErrAborted) || !errors.Is(sendErr, cause) {
		t.Errorf("blocked send error does not wrap mpi.ErrAborted and the cause: %v", sendErr)
	}
	if n := w.pendingRdv(); n != 0 {
		t.Errorf("%d rendezvous still registered after the cancelled send", n)
	}
	if len(spy.dsts) != 1 || spy.dsts[0] != 1 {
		t.Errorf("Unpin calls to ranks %v, want exactly one, to rank 1", spy.dsts)
	}
}

// TestRemoteRankNumbersOffTheWireAreChecked: a message's ranks index
// per-rank state (the credit account by source, the progress count by
// destination), so a data message from a source outside the world and
// an ack addressed to a rank not hosted here are dropped — payload
// released, nothing parked, nobody signalled — instead of indexing it.
func TestRemoteRankNumbersOffTheWireAreChecked(t *testing.T) {
	err := claimHarness(t, func(c mpi.Comm, h remoteHandler) error {
		w := h.w
		for _, src := range []int{-1, w.np} {
			m := inbound(c, transport.Eager, 5, 0)
			m.SrcWorld = src
			if h.Claim(m, 8) != nil {
				return fmt.Errorf("claimed a receive for a message from world rank %d", src)
			}
			m.Buf = bufpool.Get(8)
			m.Data = m.Buf.B
			putsBefore := poolPuts()
			h.Deliver(m)
			if poolPuts() != putsBefore+1 || w.eps[0].pendingArrivals() != 0 {
				return fmt.Errorf("a message from world rank %d was not dropped", src)
			}
		}
		id, rdv := w.registerRdv()
		for _, dst := range []int{-1, w.np} {
			ack := inbound(c, transport.RdvAck, 0, id)
			ack.Dst = dst
			h.Deliver(ack)
			if len(rdv.done) != 0 {
				return fmt.Errorf("an ack addressed to rank %d released a sender", dst)
			}
		}
		h.Deliver(inbound(c, transport.RdvAck, 0, id))
		if len(rdv.done) != 1 {
			return errors.New("the ack addressed to the sender's rank did not release it")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
