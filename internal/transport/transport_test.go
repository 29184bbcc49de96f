package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestFrameRoundTrip pins the wire encoding: every header field must
// survive encode/decode, including negative tags and the ack format.
func TestFrameRoundTrip(t *testing.T) {
	in := header{
		seq: 7, msgID: 99, kind: Rdv, ctx: 1 << 40,
		src: 3, srcWorld: 11, dst: 5, tag: -42,
		totalLen: 100, offset: 64,
	}
	frag := 36 // totalLen - offset
	b := make([]byte, dataHeaderLen+frag)
	putHeader(b, in)
	if b[0] != ptData {
		t.Fatalf("packet type = %d, want %d", b[0], ptData)
	}
	out, err := parseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("header round-trip:\n got %+v\nwant %+v", out, in)
	}

	var ab [maxAckLen]byte
	want := ack{cum: 1 << 50, n: 2}
	want.ranges[0] = seqRange{1<<50 + 2, 1<<50 + 2}
	want.ranges[1] = seqRange{1<<50 + 9, 1<<50 + 40}
	n := putAck(ab[:], &want)
	if n != ackBaseLen+2*ackRangeLen || ab[0] != ptAck {
		t.Fatalf("ack encoding: %d bytes, type %d", n, ab[0])
	}
	got, err := parseAck(ab[:n])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ack round-trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestFrameRejectsMalformed: short datagrams and fragments overrunning
// the declared message length must error, not panic or corrupt.
func TestFrameRejectsMalformed(t *testing.T) {
	if _, err := parseHeader(make([]byte, dataHeaderLen-1)); err == nil {
		t.Error("short data datagram must be rejected")
	}
	if _, err := parseAck(make([]byte, ackBaseLen-1)); err == nil {
		t.Error("short ack datagram must be rejected")
	}
	b := make([]byte, dataHeaderLen+10)
	putHeader(b, header{totalLen: 5, offset: 0}) // 10-byte frag into a 5-byte message
	if _, err := parseHeader(b); err == nil {
		t.Error("overrunning fragment must be rejected")
	}
}

// TestChanTransport pins the default transport's shape: everything
// hosted, nothing wired, Send unreachable by contract.
func TestChanTransport(t *testing.T) {
	var tr Transport = Chan{}
	if tr.Name() != ChanName {
		t.Errorf("Name = %q", tr.Name())
	}
	if !tr.Hosted(0) || !tr.Hosted(7) {
		t.Error("chan transport must host every rank")
	}
	if tr.Wire(0) || tr.Wire(7) {
		t.Error("chan transport must wire nothing")
	}
	if err := tr.Send(Message{Dst: 3}); err == nil {
		t.Error("Send on the chan transport must error")
	}
	if err := tr.Start(nil); err != nil {
		t.Error(err)
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
}

// TestNewFactory covers the CLI spellings.
func TestNewFactory(t *testing.T) {
	for _, spec := range []string{"", ChanName} {
		tr, err := New(spec, 4)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if _, ok := tr.(Chan); !ok {
			t.Errorf("New(%q) = %T, want Chan", spec, tr)
		}
	}
	tr, err := New(UDPName, 4)
	if err != nil {
		t.Fatalf("New(udp): %v", err)
	}
	u, ok := tr.(*UDP)
	if !ok {
		t.Fatalf("New(udp) = %T, want *UDP", tr)
	}
	if !u.Hosted(3) || !u.Wire(3) {
		t.Error("SelfUDP must host and wire every rank")
	}
	u.Close()
	if _, err := New("smoke-signals", 4); err == nil {
		t.Error("unknown transport spec must error")
	}
}

// deliverFunc is a Handler that claims nothing: every message arrives
// reassembled in pooled memory.
type deliverFunc func(Message)

func (deliverFunc) Claim(Message, int) Sink { return nil }
func (f deliverFunc) Deliver(m Message)     { f(m) }

// discard drops what it is delivered (an endpoint that only sends).
var discard = deliverFunc(func(m Message) { m.Buf.Release() })

// collector gathers delivered messages in order.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) handle(m Message) {
	// Copy the payload out so the bufpool buffer can be released —
	// mirrors the engine, which consumes delivered payloads promptly.
	cp := append([]byte(nil), m.Data...)
	m.Data = cp
	m.Buf.Release()
	m.Buf = nil
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) []Message {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]Message(nil), c.msgs...)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d messages delivered", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// pattern fills a payload deterministically from a message index.
func pattern(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*131 + j*7)
	}
	return b
}

// newPair builds two single-rank-hosted UDP transports addressing each
// other, with an optional fault wrapper around each side's socket.
func newPair(t *testing.T, faults *FaultConfig) (*UDP, *UDP) {
	t.Helper()
	return newPairWith(t, faults, ackEvery)
}

// newPairWith is newPair with both ends' delayed-ack threshold set to
// every: a hook on the flows the pair starts with, not a setting.
func newPairWith(t *testing.T, faults *FaultConfig, every int) (*UDP, *UDP) {
	t.Helper()
	mkConn := func(seed int64) net.PacketConn {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if faults == nil {
			return conn
		}
		cfg := *faults
		cfg.Seed = seed
		return NewFaulty(conn, cfg)
	}
	connA, connB := mkConn(7), mkConn(11)
	b, err := NewUDP(UDPConfig{NP: 2, Hosted: []int{1}, Conn: connB, Peers: map[int]string{0: connA.LocalAddr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewUDP(UDPConfig{NP: 2, Hosted: []int{0}, Conn: connA, Peers: map[int]string{1: connB.LocalAddr().String()}})
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	a.sendTo[1].recv.ackEvery, b.sendTo[0].recv.ackEvery = every, every
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestUDPPairOrderAndFragmentation streams messages of mixed sizes —
// zero-length, sub-fragment, and multi-fragment — one way and checks
// order and bytes.
func TestUDPPairOrderAndFragmentation(t *testing.T) {
	a, b := newPair(t, nil)
	var sink collector
	if err := a.Start(discard); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(deliverFunc(sink.handle)); err != nil {
		t.Fatal(err)
	}

	sizes := []int{0, 1, 100, maxPayload, maxPayload + 1, 3 * maxPayload, 64 << 10}
	const rounds = 5
	n := 0
	for r := 0; r < rounds; r++ {
		for _, sz := range sizes {
			err := a.Send(Message{
				Ctx: 1, Src: 0, SrcWorld: 0, Dst: 1, Tag: n, Kind: Eager,
				Data: pattern(n, sz),
			})
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	got := sink.waitFor(t, n, 10*time.Second)
	for i, m := range got {
		sz := sizes[i%len(sizes)]
		if m.Tag != i {
			t.Fatalf("message %d: tag %d — delivery out of order", i, m.Tag)
		}
		if m.Kind != Eager || m.Ctx != 1 || m.Src != 0 || m.Dst != 1 {
			t.Fatalf("message %d: metadata %+v", i, m)
		}
		if !bytes.Equal(m.Data, pattern(i, sz)) {
			t.Fatalf("message %d (%d bytes): payload corrupted", i, sz)
		}
	}
}

// TestUDPRendezvousAckFlow drives the Rdv → RdvAck exchange both ways:
// B acks every rendezvous payload it sees, and A must observe acks with
// matching correlation ids.
func TestUDPRendezvousAckFlow(t *testing.T) {
	a, b := newPair(t, nil)
	var acks collector
	if err := a.Start(deliverFunc(acks.handle)); err != nil {
		t.Fatal(err)
	}
	err := b.Start(deliverFunc(func(m Message) {
		id := m.MsgID
		m.Buf.Release()
		// Reply from the delivery path — Send must not block on it.
		if err := b.Send(Message{Ctx: m.Ctx, Src: 1, SrcWorld: 1, Dst: 0, Kind: RdvAck, MsgID: id}); err != nil {
			t.Error(err)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := 0; i < n; i++ {
		err := a.Send(Message{
			Ctx: 2, Src: 0, SrcWorld: 0, Dst: 1, Tag: i, Kind: Rdv,
			MsgID: uint64(1000 + i), Data: pattern(i, 32<<10),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := acks.waitFor(t, n, 10*time.Second)
	for i, m := range got {
		if m.Kind != RdvAck || m.MsgID != uint64(1000+i) || len(m.Data) != 0 {
			t.Fatalf("ack %d: kind=%v msgID=%d len=%d", i, m.Kind, m.MsgID, len(m.Data))
		}
	}
}

// TestUDPByteIdentityUnderFaults is the satellite proof: 5% drop plus
// duplication and reordering on both sockets, and delivery must still
// be exactly-once, in order, byte-identical — with retransmits visible
// in the metrics snapshot.
func TestUDPByteIdentityUnderFaults(t *testing.T) {
	faults := &FaultConfig{Drop: 0.05, Dup: 0.03, Reorder: 0.03}
	a, b := newPair(t, faults)
	m := metrics.New(1, 0)
	a.BindMetrics(m)
	b.BindMetrics(m)

	var sink collector
	if err := a.Start(discard); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(deliverFunc(sink.handle)); err != nil {
		t.Fatal(err)
	}

	const n = 120
	for i := 0; i < n; i++ {
		sz := (i % 5) * maxPayload / 2 // 0 .. 2×maxPayload, crossing fragmentation
		err := a.Send(Message{
			Ctx: 3, Src: 0, SrcWorld: 0, Dst: 1, Tag: i, Kind: Eager,
			Data: pattern(i, sz),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := sink.waitFor(t, n, 30*time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d messages, want exactly %d (no duplicates)", len(got), n)
	}
	for i, msg := range got {
		sz := (i % 5) * maxPayload / 2
		if msg.Tag != i {
			t.Fatalf("message %d: tag %d — delivery out of order under faults", i, msg.Tag)
		}
		if !bytes.Equal(msg.Data, pattern(i, sz)) {
			t.Fatalf("message %d (%d bytes): payload corrupted under faults", i, sz)
		}
	}
	s := m.Snapshot()
	if s.WireRetransmits == 0 {
		t.Error("expected retransmits under 5% datagram loss, counter is zero")
	}
	if s.WireDatagramsSent == 0 || s.WireDatagramsRecv == 0 || s.WireBytesSent == 0 {
		t.Errorf("wire counters not threaded: %+v", s)
	}
}

// placer is the engine's half of the receive seam, for tests: it claims
// every message into a buffer of its own, and hands the completed
// buffer to done.
type placer struct {
	done   func(m Message, payload []byte)
	direct *atomic.Int64 // when set, counts the bytes placed found in place already
}

// placed is a buffer placer claimed. Like the engine's posted receive it
// leaves a fragment alone that is where it belongs already.
type placed struct {
	buf    []byte
	direct *atomic.Int64
}

func (d placed) Window(off, n int) []byte { return d.buf[off : off+n] }

func (d placed) Place(off int, frag []byte) bool {
	if len(frag) > 0 && &frag[0] == &d.buf[off] {
		if d.direct != nil {
			d.direct.Add(int64(len(frag)))
		}
		return true
	}
	copy(d.buf[off:], frag)
	return true
}

func (p placer) Claim(_ Message, size int) Sink { return placed{make([]byte, size), p.direct} }

func (p placer) Deliver(m Message) {
	if m.Sink != nil {
		p.done(m, m.Sink.(placed).buf)
		return
	}
	p.done(m, m.Data)
	m.Buf.Release()
}

// TestUDPDirectPlacementTwoFlows aims the batched read's windows on real
// sockets with two senders at once: whichever flow delivered last has
// its open message's buffer under the next slots, and the other's
// datagrams — and both flows' ACK traffic — land in them as
// mispredictions. Every message must still arrive intact and in its
// flow's order, the kernel having placed a good part of the bytes
// itself.
func TestUDPDirectPlacementTwoFlows(t *testing.T) {
	const np, msgs = 3, 40
	conns := make([]net.PacketConn, np)
	for r := range conns {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns[r] = conn
	}
	trs := make([]*UDP, np)
	for r := range trs {
		peers := map[int]string{}
		for o, c := range conns {
			if o != r {
				peers[o] = c.LocalAddr().String()
			}
		}
		tr, err := NewUDP(UDPConfig{NP: np, Hosted: []int{r}, Conn: conns[r], Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[r] = tr
	}
	sizes := []int{5*maxPayload + 123, 2 * maxPayload, 100, 8 * maxPayload, maxPayload + 1}
	want := func(src, i int) []byte { return pattern(src*1000+i, sizes[i%len(sizes)]) }

	var direct atomic.Int64
	var mu sync.Mutex
	next := [np]int{}
	var bad []string
	left := 2 * msgs
	allIn := make(chan struct{})
	recv := placer{direct: &direct, done: func(m Message, payload []byte) {
		mu.Lock()
		defer mu.Unlock()
		if m.Tag != next[m.SrcWorld] || !bytes.Equal(payload, want(m.SrcWorld, m.Tag)) {
			bad = append(bad, fmt.Sprintf("from rank %d: message %d (want %d next), intact=%v",
				m.SrcWorld, m.Tag, next[m.SrcWorld], bytes.Equal(payload, want(m.SrcWorld, m.Tag))))
		}
		next[m.SrcWorld]++
		if left--; left == 0 {
			close(allIn)
		}
	}}
	met := metrics.New(1, 0)
	trs[2].BindMetrics(met)
	if err := trs[2].Start(recv); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		if err := trs[src].Start(discard); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				err := trs[src].Send(Message{Ctx: 1, Src: src, SrcWorld: src, Dst: 2, Tag: i, Kind: Eager, Data: want(src, i)})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	select {
	case <-allIn:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for both flows' messages")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, b := range bad {
		t.Error(b)
	}
	s := met.Snapshot()
	t.Logf("%d of %d bytes received were placed by the kernel, in %d reads of %d datagrams",
		direct.Load(), s.WireBytesRecv, s.WireBatchedReads, s.WireDatagramsRecv)
	if trs[2].bio != nil && direct.Load() == 0 {
		t.Error("a batch-capable socket placed nothing directly")
	}
}

// TestUDPPinnedSendScribble is the pin's lifetime rule on real sockets,
// under the race detector: over 20% loss both ways and with transport
// ACKs held back (a delayed-ack threshold far above what is ever in
// flight, so they leave on the delay timer), a sender is released by the RdvAck alone —
// and overwrites its buffer the instant it is. The flow must have let go
// of the buffer by then: every message still arrives with its original
// bytes, and no retransmission reads a buffer its sender is writing.
func TestUDPPinnedSendScribble(t *testing.T) {
	faults := &FaultConfig{Drop: 0.2}
	a, b := newPairWith(t, faults, 1<<20)

	const n, size = 60, 3*maxPayload + 100
	released := make(chan uint64, 1) // the engine's rdvState.done
	err := a.Start(deliverFunc(func(m Message) {
		m.Buf.Release()
		if m.Kind == RdvAck {
			released <- m.MsgID
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Message, n)
	err = b.Start(placer{done: func(m Message, payload []byte) {
		m.Data = append([]byte(nil), payload...)
		got <- m
		// Consumed: let the sender go, from the delivery path.
		if err := b.Send(Message{Ctx: m.Ctx, Src: 1, SrcWorld: 1, Dst: 0, Kind: RdvAck, MsgID: m.MsgID}); err != nil {
			t.Error(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		copy(buf, pattern(i, size))
		id := uint64(100 + i)
		if err := a.Send(Message{Ctx: 4, Dst: 1, Tag: i, Kind: Rdv, MsgID: id, Data: buf}); err != nil {
			t.Fatal(err)
		}
		select {
		case ack := <-released:
			if ack != id {
				t.Fatalf("released by the ack of message %d, want %d", ack, id)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("rendezvous %d never acknowledged", i)
		}
		for j := range buf {
			buf[j] = 0xEE // the sender has its buffer back
		}
		m := <-got
		if m.Tag != i || m.Kind != Rdv || !bytes.Equal(m.Data, pattern(i, size)) {
			t.Fatalf("message %d arrived as tag %d with the sender's later bytes in it", i, m.Tag)
		}
	}
}

// TestUDPUnpin: a rendezvous sender that gives up takes its buffer back
// with Unpin; what had not been acknowledged still arrives intact from
// the transport's own copy.
func TestUDPUnpin(t *testing.T) {
	u, peer := blackHolePair(t)
	const size = 2*maxPayload + 10
	buf := pattern(7, size)
	if err := u.Send(Message{Dst: 1, Kind: Rdv, MsgID: 9, Data: buf}); err != nil {
		t.Fatal(err)
	}
	f := &peer.send
	views := func() (pinned, pooled int) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for seq := f.base; seq < f.nextSeq; seq++ {
			if s := f.slot(seq); s.buf == nil {
				pinned++
			} else {
				pooled++
			}
		}
		return
	}
	if pinned, pooled := views(); pinned != 3 || pooled != 0 {
		t.Fatalf("after Send: %d pinned and %d pooled slots, want 3 and 0", pinned, pooled)
	}
	u.Unpin(1, 8) // not a message of this flow: nothing happens
	if pinned, _ := views(); pinned != 3 {
		t.Fatalf("Unpin of an unknown id unpinned %d slots", 3-pinned)
	}
	u.Unpin(1, 9)
	for i := range buf {
		buf[i] = 0xEE
	}
	if pinned, pooled := views(); pinned != 0 || pooled != 3 {
		t.Fatalf("after Unpin: %d pinned and %d pooled slots, want 0 and 3", pinned, pooled)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pins) != 0 {
		t.Errorf("flow still lists %d pinned messages", len(f.pins))
	}
	var whole []byte
	for seq := f.base; seq < f.nextSeq; seq++ {
		whole = append(whole, f.slot(seq).payload...)
	}
	if !bytes.Equal(whole, pattern(7, size)) {
		t.Error("the unpinned slots do not hold the message's original bytes")
	}
}

// sizedConn records the kernel buffer sizes requested of it.
type sizedConn struct {
	net.PacketConn
	rbuf, wbuf int
}

func (c *sizedConn) SetReadBuffer(n int) error  { c.rbuf = n; return nil }
func (c *sizedConn) SetWriteBuffer(n int) error { c.wbuf = n; return nil }

// TestUDPSizesWrappedSocket: NewUDP sizes the kernel buffers of any
// socket that can be sized, and Faulty forwards the request — a wrapped
// socket left at the kernel default cannot absorb a send window.
func TestUDPSizesWrappedSocket(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sized := &sizedConn{PacketConn: conn}
	u, err := NewUDP(UDPConfig{NP: 2, Conn: NewFaulty(sized, FaultConfig{}), ForceWire: true})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if sized.rbuf != socketBuf || sized.wbuf != socketBuf {
		t.Errorf("wrapped socket sized to read=%d write=%d, want %d both", sized.rbuf, sized.wbuf, socketBuf)
	}
}

// TestUDPConfigValidation pins constructor error paths.
func TestUDPConfigValidation(t *testing.T) {
	if _, err := NewUDP(UDPConfig{NP: 0}); err == nil {
		t.Error("NP=0 must error")
	}
	if _, err := NewUDP(UDPConfig{NP: 4, Hosted: []int{4}}); err == nil {
		t.Error("out-of-range hosted rank must error")
	}
	if _, err := NewUDP(UDPConfig{NP: 4, Hosted: []int{0}}); err == nil {
		t.Error("unaddressed unhosted rank must error")
	}
	if _, err := NewUDP(UDPConfig{NP: 2, Peers: map[int]string{5: "127.0.0.1:1"}}); err == nil {
		t.Error("out-of-range peer rank must error")
	}
	u, err := SelfUDP(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Send(Message{Dst: 9}); err == nil {
		t.Error("out-of-range destination must error")
	}
	if err := u.Close(); err != nil {
		t.Error(err)
	}
	if err := u.Close(); err != nil {
		t.Error("double Close must be a no-op, got:", err)
	}
	if err := u.Start(nil); err == nil {
		t.Error("Start after Close must error")
	}
}

func ExampleNew() {
	tr, _ := New("chan", 4)
	fmt.Println(tr.Name(), tr.Hosted(2), tr.Wire(2))
	// Output: chan true false
}
