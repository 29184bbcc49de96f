package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

const (
	// socketBuf is the kernel send/recv buffer size requested for
	// sockets the transport owns; sized for a full 256-packet window of
	// maximum payloads (the kernel clamps to its rmem/wmem ceilings,
	// and retransmit covers whatever still drops).
	socketBuf = 1 << 23
	// minDrain is the floor of Close's linger bound. The effective bound
	// is max(minDrain, drainRTOs·RTO) over the flows' estimator RTOs —
	// never a backoff-inflated one, since a draining flow retransmits
	// every RTO — so the final ACK exchange gets drainRTOs retransmit
	// opportunities while a peer that already exited cannot hang Close.
	minDrain  = 5 * time.Second
	drainRTOs = 64
)

// UDPConfig describes a UDP transport endpoint.
type UDPConfig struct {
	// NP is the world size (required).
	NP int
	// Hosted lists the world ranks whose bodies run in this process.
	// Nil means all ranks are hosted (single-process setups).
	Hosted []int
	// Peers maps world ranks to "host:port" addresses of the processes
	// hosting them. Ranks without an entry must be hosted locally.
	Peers map[int]string
	// Conn, when non-nil, is an already-bound socket the transport takes
	// over (the soak harness reuses its bootstrap socket so peers keep a
	// stable address). When nil the transport binds an ephemeral
	// loopback port ("127.0.0.1:0").
	Conn net.PacketConn
	// ForceWire routes every message through the socket even for hosted
	// ranks, defaulting each rank's peer address to the transport's own
	// socket. Single-process benchmarks use this to exercise the real
	// datagram path without spawning processes.
	ForceWire bool
}

// UDP is the datagram transport backend: reliable, in-order message
// delivery over unreliable packets, per the package-level framing and
// retransmit contract. One UDP value serves every world booted on it.
type UDP struct {
	np     int
	hosted []bool
	force  bool
	conn   net.PacketConn
	uc     *net.UDPConn // conn when it is a raw UDP socket: allocation-free single writes
	bio    *batchIO
	sendTo []*peer // by destination rank; nil for ranks without an address
	// rxLast is the peer whose data datagram the receive loop delivered
	// last: the flow the next batched read is aimed for. The receive
	// loop's alone.
	rxLast *peer

	hmu     sync.RWMutex
	handler Handler

	mu      sync.Mutex // guards started, closed and writes to peers
	started bool
	closed  bool
	// peers is copy-on-write: the per-datagram paths read it without a
	// lock, and the rare first sight of an address republishes a copy
	// under mu.
	peers atomic.Pointer[map[peerKey]*peer]
	// draining is set by Close for its linger: retransmit at the
	// estimator RTO, without per-packet backoff.
	draining atomic.Bool
	done     chan struct{}
	wg       sync.WaitGroup

	met atomic.Pointer[metrics.Metrics]
}

// peerKey identifies the remote end of a flow pair by value, so looking
// a flow up formats nothing.
type peerKey struct {
	ap   netip.AddrPort
	name string // addr.String(), for addresses that are not *net.UDPAddr
}

func keyOf(addr net.Addr) peerKey {
	if ua, ok := addr.(*net.UDPAddr); ok {
		ap := ua.AddrPort()
		// One key for 127.0.0.1 however the IP slice spells it.
		return peerKey{ap: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
	}
	return peerKey{name: addr.String()}
}

// peer is both halves of the packet stream to one socket address.
type peer struct {
	addr net.Addr
	ap   netip.AddrPort // valid when addr is a *net.UDPAddr
	send sendFlow
	recv recvFlow
}

// sockBuffers is what NewUDP needs of a socket to size its kernel
// buffers: *net.UDPConn has it, and Faulty forwards it.
type sockBuffers interface {
	SetReadBuffer(bytes int) error
	SetWriteBuffer(bytes int) error
}

// NewUDP builds a UDP transport from cfg. The transport is idle until
// Start; Send may be called before Start (outbound only).
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if cfg.NP <= 0 {
		return nil, fmt.Errorf("transport: non-positive world size %d", cfg.NP)
	}
	conn := cfg.Conn
	if conn == nil {
		var err error
		conn, err = net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
	}
	if sb, ok := conn.(sockBuffers); ok {
		// Best effort: absorb a full send window without loopback drops.
		_ = sb.SetReadBuffer(socketBuf)
		_ = sb.SetWriteBuffer(socketBuf)
	}
	t := &UDP{
		np:     cfg.NP,
		force:  cfg.ForceWire,
		conn:   conn,
		hosted: make([]bool, cfg.NP),
		sendTo: make([]*peer, cfg.NP),
		done:   make(chan struct{}),
	}
	t.uc, _ = conn.(*net.UDPConn)
	t.peers.Store(&map[peerKey]*peer{})
	t.bio = newBatchIO(conn)
	if cfg.Hosted == nil {
		for r := range t.hosted {
			t.hosted[r] = true
		}
	} else {
		for _, r := range cfg.Hosted {
			if r < 0 || r >= cfg.NP {
				conn.Close()
				return nil, fmt.Errorf("transport: hosted rank %d out of range [0,%d)", r, cfg.NP)
			}
			t.hosted[r] = true
		}
	}
	for r, spec := range cfg.Peers {
		if r < 0 || r >= cfg.NP {
			conn.Close()
			return nil, fmt.Errorf("transport: peer rank %d out of range [0,%d)", r, cfg.NP)
		}
		addr, err := net.ResolveUDPAddr("udp", spec)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: peer %d: %w", r, err)
		}
		t.sendTo[r] = t.peerFor(addr)
	}
	if cfg.ForceWire {
		self := t.peerFor(conn.LocalAddr())
		for r := range t.sendTo {
			if t.sendTo[r] == nil {
				t.sendTo[r] = self
			}
		}
	}
	for r := range t.sendTo {
		if t.sendTo[r] == nil && !t.hosted[r] {
			conn.Close()
			return nil, fmt.Errorf("transport: rank %d is neither hosted nor addressed", r)
		}
	}
	return t, nil
}

// SelfUDP builds a single-process UDP transport hosting all np ranks
// with ForceWire on: every message crosses the process's own socket, so
// benchmarks and tests exercise the full framing/reliability path
// without spawning processes.
func SelfUDP(np int) (*UDP, error) {
	return NewUDP(UDPConfig{NP: np, ForceWire: true})
}

// Hosted implements Transport.
func (t *UDP) Hosted(rank int) bool {
	return rank >= 0 && rank < t.np && t.hosted[rank]
}

// Wire implements Transport: unhosted ranks always cross the wire, and
// ForceWire routes hosted ranks through the socket too.
func (t *UDP) Wire(dst int) bool {
	if dst < 0 || dst >= t.np {
		return false
	}
	return t.force || !t.hosted[dst]
}

// BindMetrics points wire counters at m (shard 0: wire activity is
// process-level, not rank-level). The engine binds its world's Metrics
// here at boot; nil detaches.
func (t *UDP) BindMetrics(m *metrics.Metrics) { t.met.Store(m) }

func (t *UDP) count(c metrics.Counter, v int64) {
	if m := t.met.Load(); m != nil {
		m.Add(0, c, v)
	}
}

func (t *UDP) gauge(c metrics.Counter, v int64) {
	if m := t.met.Load(); m != nil {
		m.Max(0, c, v)
	}
}

// Start implements Transport: installs h and launches the receive and
// retransmit loops (once; a later Start only replaces the handler).
func (t *UDP) Start(h Handler) error {
	t.hmu.Lock()
	t.handler = h
	t.hmu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("transport: udp transport is closed")
	}
	if !t.started {
		t.started = true
		t.wg.Add(2)
		go t.recvLoop()
		go t.tickLoop()
	}
	return nil
}

// peerFor returns the flow pair for addr, creating it on first sight.
func (t *UDP) peerFor(addr net.Addr) *peer {
	key := keyOf(addr)
	if p := (*t.peers.Load())[key]; p != nil {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.peers.Load()
	if p := old[key]; p != nil {
		return p
	}
	p := &peer{addr: addr, ap: key.ap}
	p.send.init()
	p.recv.init(ackEvery)
	grown := make(map[peerKey]*peer, len(old)+1)
	for k, v := range old {
		grown[k] = v
	}
	grown[key] = p
	t.peers.Store(&grown)
	return p
}

// noteCC publishes the flow's congestion and RTT state to the metrics
// gauges. Callers hold f.mu.
func (t *UDP) noteCC(f *sendFlow) {
	if t.met.Load() == nil {
		return
	}
	w := int64(f.cwnd)
	t.gauge(metrics.WireCwndHighWater, w)
	t.gauge(metrics.WireCwndLowWaterInv, metrics.CwndLowWaterBase-w)
	t.gauge(metrics.WireSRTTMaxMicros, f.srtt.Microseconds())
	t.gauge(metrics.WireRTOMaxMicros, f.rto.Microseconds())
}

// Send implements Transport: frames m into sequenced fragments on the
// destination's flow, then flushes every fragment the congestion window
// admits in one batched write. It never blocks on the receive path.
func (t *UDP) Send(m Message) error {
	if m.Dst < 0 || m.Dst >= t.np {
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", m.Dst, t.np)
	}
	p := t.sendTo[m.Dst]
	if p == nil {
		return fmt.Errorf("transport: no peer address for rank %d", m.Dst)
	}
	p.send.mu.Lock()
	defer p.send.mu.Unlock()
	p.send.enqueue(m, maxPayload)
	t.flush(p)
	return nil
}

// flush writes the datagrams p.send.wlist names — gathered from header
// and payload view by sendmmsg when the socket supports it, assembled in
// the flow's scratch and written one by one otherwise — and starts their
// retransmit clocks. Write errors are ignored: a failed
// datagram is indistinguishable from a lost one, and retransmit covers
// both (so datagrams the kernel did not take are stamped too). Callers
// hold p.send.mu.
func (t *UDP) flush(p *peer) {
	f := &p.send
	if len(f.wlist) == 0 {
		return
	}
	batched := false
	if t.bio != nil {
		f.wdgrams = f.wdgrams[:0]
		for _, seq := range f.wlist {
			s := f.slot(seq)
			f.wdgrams = append(f.wdgrams, datagram{s.hdr[:], s.payload})
		}
		var sent, calls int
		if sent, calls, batched = t.bio.writeBatch(&f.batch, f.wdgrams, p.addr); sent > 0 {
			var bytes int64
			for _, d := range f.wdgrams[:sent] {
				bytes += int64(len(d.hdr) + len(d.payload))
			}
			t.count(metrics.WireDatagramsSent, int64(sent))
			t.count(metrics.WireBytesSent, bytes)
			t.count(metrics.WireBatchedWrites, int64(calls))
		}
	}
	if !batched {
		for _, seq := range f.wlist {
			s := f.slot(seq)
			b := s.hdr[:]
			if len(s.payload) > 0 {
				f.scratch = append(append(f.scratch[:0], b...), s.payload...)
				b = f.scratch
			}
			if t.writeTo(b, p) == nil {
				t.count(metrics.WireDatagramsSent, 1)
				t.count(metrics.WireBytesSent, int64(len(b)))
			}
		}
	}
	f.stampWritten(time.Now())
}

// Unpin implements Transport.
func (t *UDP) Unpin(dst int, msgID uint64) {
	if dst < 0 || dst >= t.np || t.sendTo[dst] == nil {
		return
	}
	f := &t.sendTo[dst].send
	f.mu.Lock()
	f.unpin(msgID)
	f.mu.Unlock()
}

// writeTo writes one datagram to p, without allocating when the
// transport owns a raw UDP socket.
func (t *UDP) writeTo(b []byte, p *peer) error {
	if t.uc != nil && p.ap.IsValid() {
		_, err := t.uc.WriteToUDPAddrPort(b, p.ap)
		return err
	}
	_, err := t.conn.WriteTo(b, p.addr)
	return err
}

// Close implements Transport: drains unacknowledged packets — bounded
// by drainBound, retransmitting every estimator RTO — then stops the
// loops, closes the socket, and releases every retained buffer.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	started := t.started
	t.mu.Unlock()
	if started {
		// The loops are still running here, so retransmits keep flowing
		// and inbound acks keep retiring packets while we wait. Our own
		// deferred ACKs leave at once meanwhile: the peer may be draining
		// too, and an ACK that dies with this socket costs it its whole
		// linger.
		t.draining.Store(true)
		ackBuf := make([]byte, maxAckLen)
		for start := time.Now(); ; time.Sleep(time.Millisecond) {
			t.ackFlushPass(time.Now().Add(maxAckDelay), ackBuf)
			if !t.hasPending() || time.Since(start) >= t.drainBound() {
				break
			}
		}
	}
	close(t.done)
	err := t.conn.Close()
	if started {
		t.wg.Wait()
	}
	for _, p := range *t.peers.Load() {
		p.send.mu.Lock()
		for f := &p.send; f.q.len() > 0; f.q.pop() {
			f.q.at(0).release()
		}
		p.send.pins = nil
		p.send.mu.Unlock()
		p.recv.mu.Lock()
		for f := &p.recv; f.hold.len() > 0; f.hold.pop() {
			f.hold.at(0).buf.Release()
		}
		p.recv.abandon()
		p.recv.pre = nil
		p.recv.mu.Unlock()
	}
	return err
}

// drainBound is Close's linger ceiling: max(minDrain, drainRTOs times
// the largest flow RTO). Per-packet backoff does not enter it: a
// draining flow retransmits every RTO, so a peer that is still there
// gets drainRTOs chances to acknowledge and one that exited costs the
// bound once, not a backoff-inflated multiple of it.
func (t *UDP) drainBound() time.Duration {
	var worst time.Duration
	for _, p := range *t.peers.Load() {
		p.send.mu.Lock()
		worst = max(worst, p.send.rto)
		p.send.mu.Unlock()
	}
	return max(minDrain, time.Duration(drainRTOs)*worst)
}

// hasPending reports whether any flow still holds unacknowledged
// packets.
func (t *UDP) hasPending() bool {
	for _, p := range *t.peers.Load() {
		p.send.mu.Lock()
		n := p.send.q.len()
		p.send.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// ackDelay is how long p's receive half may defer a cumulative ack:
// ~RTO/4 of the reverse flow's live estimate (the sender whose
// retransmit clock the deferred ack races), clamped to [minAckDelay,
// maxAckDelay].
func (p *peer) ackDelay() time.Duration {
	d := time.Duration(p.send.rtoNanos.Load()) / 4
	if d < minAckDelay {
		d = minAckDelay
	}
	if d > maxAckDelay {
		d = maxAckDelay
	}
	return d
}

// recvLoop reads datagrams — recvmmsg batches when the socket supports
// them, single ReadFrom calls otherwise — and dispatches by packet
// type. Unknown first bytes (e.g. the soak harness's textual bootstrap
// packets sharing this socket) are dropped.
func (t *UDP) recvLoop() {
	defer t.wg.Done()
	ackBuf := make([]byte, maxAckLen)
	if t.bio != nil {
		if done := t.recvBatchLoop(ackBuf); done {
			return
		}
		// recvmmsg unavailable or broken at runtime: fall back to the
		// single-datagram path below.
	}
	buf := make([]byte, maxDatagram)
	for {
		n, addr, err := t.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		hdrLen := min(n, dataHeaderLen)
		t.dispatch(buf[:hdrLen], buf[hdrLen:n], addr, ackBuf)
	}
}

// aimRead is the receive loop's readPlan: the horizon of the flow that
// delivered data last (a full batch before any has), after a look at the
// next datagram when the flow asks for one.
func (t *UDP) aimRead(win [][]byte, head peekFunc) int {
	p := t.rxLast
	if p == nil {
		return len(win)
	}
	f := &p.recv
	f.mu.Lock()
	defer f.mu.Unlock()
	n, look := f.horizon(win)
	if !look {
		return n
	}
	hdr, rest, addr, ok := head()
	if !ok || len(hdr) < 1 || hdr[0] != ptData || addr == nil || (*t.peers.Load())[keyOf(addr)] != p {
		return n
	}
	h, err := parseSplitHeader(hdr, rest)
	if err != nil {
		return n
	}
	t.hmu.RLock()
	hnd := t.handler
	t.hmu.RUnlock()
	return f.preclaim(h, rest, hnd, win)
}

// recvBatchLoop drains the socket with recvmmsg, dispatching every
// datagram of each batch. Whenever the socket runs dry it sends every
// flow's deferred ACK before parking, rather than leave it to the
// delayed-ack timer (see the package comment's ACK coalescing). It
// returns true when the transport is done (socket closed), false to
// fall back to the single-datagram path.
func (t *UDP) recvBatchLoop(ackBuf []byte) bool {
	plan := readPlan(t.aimRead)
	t.bio.idle = func() { t.ackFlushPass(time.Now().Add(maxAckDelay), ackBuf) }
	for {
		pkts, err := t.bio.readBatch(plan)
		if err != nil {
			select {
			case <-t.done:
				return true
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return true
			}
			if errors.Is(err, errBatchUnsupported) {
				return false
			}
			continue
		}
		if len(pkts) > 0 {
			t.count(metrics.WireBatchedReads, 1)
		}
		for _, pkt := range pkts {
			if pkt.addr == nil {
				continue // undecodable source sockaddr
			}
			t.dispatch(pkt.hdr, pkt.payload, pkt.addr, ackBuf)
		}
	}
}

// dispatch routes one received datagram, read as its first dataHeaderLen
// bytes (all of a shorter one) and the rest, by its first byte.
func (t *UDP) dispatch(hdr, payload []byte, addr net.Addr, ackBuf []byte) {
	if len(hdr) < 1 {
		return
	}
	switch hdr[0] {
	case ptAck:
		a, err := parseSplitAck(hdr, payload)
		if err != nil {
			return
		}
		t.count(metrics.WireDatagramsRecv, 1)
		t.count(metrics.WireBytesRecv, int64(len(hdr)+len(payload)))
		t.handleAck(t.peerFor(addr), &a)
	case ptData:
		h, err := parseSplitHeader(hdr, len(payload))
		if err != nil {
			return
		}
		t.count(metrics.WireDatagramsRecv, 1)
		t.count(metrics.WireBytesRecv, int64(len(hdr)+len(payload)))
		t.handleData(t.peerFor(addr), h, payload, ackBuf)
	}
}

// handleAck feeds one ACK to the flow's scoreboard and does what it
// returns: re-sends the datagrams it declared lost, writes the queued
// ones the window now admits, and counts.
func (t *UDP) handleAck(p *peer, a *ack) {
	f := &p.send
	f.mu.Lock()
	defer f.mu.Unlock()
	retired, fast, halved := f.onAck(a, time.Now())
	if retired > 0 {
		t.count(metrics.WireAckRoundTrips, 1)
	}
	if fast > 0 {
		t.count(metrics.WireRetransmits, int64(fast))
		t.count(metrics.WireFastRetransmits, int64(fast))
	}
	if halved {
		t.count(metrics.WireCwndHalvings, 1)
	}
	if retired > 0 || halved {
		t.noteCC(f)
	}
	t.flush(p)
}

// handleData feeds one data datagram to the flow's receive half,
// delivers what it released to the handler (under the flow lock, so
// messages reach it in flow order), and writes the ACK it asked for.
func (t *UDP) handleData(p *peer, h header, frag, ackBuf []byte) {
	f := &p.recv
	f.mu.Lock()
	inOrder, ackNow := f.onData(h, frag, time.Now(), p.ackDelay())
	if inOrder {
		t.rxLast = p
		t.hmu.RLock()
		hnd := t.handler
		t.hmu.RUnlock()
		t.deliver(p, hnd, h, frag)
		for i := range f.ready {
			d := &f.ready[i]
			t.deliver(p, hnd, d.h, d.frag())
			d.buf.Release()
		}
		if !ackNow {
			t.count(metrics.WireAcksCoalesced, 1)
		}
	}
	var a ack
	if ackNow {
		a = f.takeAck()
	}
	f.mu.Unlock()
	if ackNow {
		t.sendAck(p, &a, ackBuf)
	}
}

// deliver hands hnd the message the in-order fragment completes, if any.
// An RdvAck first retires the datagrams of the message it answers: once
// the handler has seen it the sender is free to overwrite its buffer,
// and the flow must hold no view of it by then.
func (t *UDP) deliver(p *peer, hnd Handler, h header, frag []byte) {
	m, ok := p.recv.reassemble(h, frag, hnd)
	if !ok {
		return
	}
	if m.Kind == RdvAck {
		f := &p.send
		f.mu.Lock()
		if f.onConsumed(m.MsgID) > 0 {
			t.noteCC(f)
		}
		t.flush(p)
		f.mu.Unlock()
	}
	if hnd == nil {
		m.Buf.Release()
		return
	}
	hnd.Deliver(m)
}

// sendAck writes one ACK datagram.
func (t *UDP) sendAck(p *peer, a *ack, ackBuf []byte) {
	n := putAck(ackBuf, a)
	if t.writeTo(ackBuf[:n], p) == nil {
		t.count(metrics.WireDatagramsSent, 1)
		t.count(metrics.WireBytesSent, int64(n))
		t.count(metrics.WireAcksSent, 1)
	}
}

// tickLoop is the transport's clock: it flushes overdue delayed acks,
// then retransmits written-but-unacked packets past their
// (backoff-inflated) timeout and writes queued packets the window
// admits. The ack flush is the backstop behind the batched receive
// loop's flush on drain: it alone serves the ReadFrom path, and a flow
// that holds fewer than ackEvery unacknowledged datagrams while other
// peers keep the loop busy. An ack it writes is not read before the
// same tick's retransmit pass, so it spares no re-send of that tick. The
// tick interval tracks the smallest live deadline so a 200µs adaptive
// RTO gets sub-millisecond resolution while an idle transport sleeps.
func (t *UDP) tickLoop() {
	defer t.wg.Done()
	timer := time.NewTimer(t.tickInterval())
	defer timer.Stop()
	ackBuf := make([]byte, maxAckLen)
	for {
		select {
		case <-t.done:
			return
		case now := <-timer.C:
			t.ackFlushPass(now, ackBuf)
			t.retransmitPass(now)
			timer.Reset(t.tickInterval())
		}
	}
}

// tickInterval picks the next clock granularity: half the smallest live
// RTO when packets are pending, the shortest ack-flush deadline when
// acks are deferred, and a coarse idle tick otherwise.
func (t *UDP) tickInterval() time.Duration {
	const idle = 10 * time.Millisecond
	d := idle
	for _, p := range *t.peers.Load() {
		p.send.mu.Lock()
		if p.send.q.len() > 0 {
			d = min(d, p.send.rto/2)
		}
		p.send.mu.Unlock()
		p.recv.mu.Lock()
		if p.recv.unacked > 0 && !p.recv.ackDue.IsZero() {
			d = min(d, time.Until(p.recv.ackDue))
		}
		p.recv.mu.Unlock()
	}
	return max(d, minAckDelay)
}

// retransmitPass runs every flow's retransmit clock and re-sends what
// timed out.
func (t *UDP) retransmitPass(now time.Time) {
	draining := t.draining.Load()
	for _, p := range *t.peers.Load() {
		f := &p.send
		f.mu.Lock()
		retx, halved := f.onTick(now, draining)
		if halved {
			t.count(metrics.WireCwndHalvings, 1)
			t.noteCC(f)
		}
		if retx > 0 {
			t.count(metrics.WireRetransmits, int64(retx))
		}
		t.flush(p)
		f.mu.Unlock()
	}
}

// ackFlushPass sends the delayed cumulative ack of every recv flow
// whose flush deadline has passed by now; a now maxAckDelay ahead flushes
// every deferred ack.
func (t *UDP) ackFlushPass(now time.Time, ackBuf []byte) {
	for _, p := range *t.peers.Load() {
		f := &p.recv
		f.mu.Lock()
		due := f.ackDueAt(now)
		var a ack
		if due {
			a = f.takeAck()
		}
		f.mu.Unlock()
		if due {
			t.sendAck(p, &a, ackBuf)
		}
	}
}
