package transport

import (
	"bytes"
	"container/heap"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// The flow harness couples one sendFlow and one recvFlow — the pure
// halves of a UDP flow — through a seeded schedule of drop, duplication,
// reordering and delay on both directions, under a virtual clock. No
// socket, no goroutine, no sleep: a run is a deterministic function of
// its seed, thousands of them fit in a second, and a failing seed
// replays exactly. It plays the part of udp.go's shell (write what the
// flows return, feed them what arrives, tick their clocks) and of the
// engine on both sides of it — a sender that overwrites its buffer the
// moment it is let go, a receiver that claims some messages into
// buffers of its own — and checks what the shell's callers rely on. On
// the receiving side it plays the kernel too: arriving datagrams queue
// on a socket, the receive loop wakes behind them and reads them in
// batches as long as recvFlow.horizon allows, and each payload is
// written where horizon aimed its slot — a window of the claimed buffer
// or a buffer of the slot's own — before the flow sees the datagram.

// firstSeed rotates the seeded schedules: a stress loop passes a
// different value each round and so covers schedules no earlier round
// did, while a plain `go test` stays reproducible.
var firstSeed = flag.Int64("flow.seed", 1, "first seed of the flow harness's seeded fault schedules")

// link is one direction of the simulated path: a FIFO pipe with seeded
// latency, which drops a datagram, delivers it twice, or delivers it
// late enough that the datagrams written just after it overtake it.
type link struct {
	drop, dup, reorder float64       // per-datagram probabilities, from one roll
	delay, jitter      time.Duration // one-way latency, plus uniform [0, jitter)

	last time.Time // latest in-order arrival scheduled: later datagrams do not overtake it
}

// fate is what a link did to one datagram.
type fate uint8

const (
	arrived fate = iota
	lost
	reordered
)

// arrival is something in flight: a data or ACK datagram, or the news
// that the receiver consumed a message (the engine's RdvAck, which rides
// the reliable reverse stream and so is never lost).
type arrival struct {
	at   time.Time
	ord  int // send order, the tie-break that keeps equal-time arrivals FIFO
	what arrivalKind
	b    []byte
	msg  int // the message consumed
}

type arrivalKind uint8

const (
	dataDatagram arrivalKind = iota
	ackDatagram
	consumedNotice
	rxWake // the receive loop gets to run
)

type arrivals []arrival

func (q arrivals) Len() int      { return len(q) }
func (q arrivals) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q arrivals) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].ord < q[j].ord
}
func (q *arrivals) Push(x any) { *q = append(*q, x.(arrival)) }
func (q *arrivals) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// simConfig is one harness scenario.
type simConfig struct {
	seed     int64
	fwd, rev link          // data direction, ack direction
	msgs     int           // messages to send
	maxFrags int           // each message is a seeded 0..maxFrags fragments' worth of bytes ...
	size     int           // ... unless size > 0: then exactly size bytes
	payload  int           // fragment payload bytes
	gap      time.Duration // messages are enqueued a seeded [0, gap) apart
	dropNth  int           // when > 0, additionally drop the first transmission of this sequence number
	rxLag    time.Duration // the receive loop wakes a seeded [0, rxLag] behind the first datagram it finds queued
	foreign  float64       // per batch slot, the chance that someone else's datagram (an ACK, another flow's) is read first
}

// simSlot is the window of a claimed buffer one slot of the batch being
// processed was aimed at: the n bytes at off of dst[msg] that the kernel
// wrote the slot's datagram into (n is 0 for a slot aimed at its own
// buffer).
type simSlot struct{ msg, off, n int }

// sim is one run of the harness.
type sim struct {
	t   *testing.T
	cfg simConfig
	rng *rand.Rand
	now time.Time
	tx  sendFlow
	rx  recvFlow
	net arrivals
	ord int

	// Messages, by tag. Message i is Eager when i%4 == 3 and Rdv (sent
	// under msgID i+1, pinned) otherwise; the receiver claims the even
	// ones. want is what must arrive; src is the buffer handed to
	// enqueue, overwritten as soon as the sender may touch it again —
	// at once for Eager, at the consumed notice for Rdv, or (every fifth
	// message) when the sender gives up waiting and unpins; dst is the
	// claimed destination.
	want, src, dst [][]byte
	letGo          []bool // src[i] has been overwritten
	consumed       []bool // onConsumed(i) has returned
	giveUpAt       []time.Time
	notices        int // consumed notices in flight
	delivered      int // messages delivered so far, in order

	// The receiving socket and the batch being processed off it.
	sock    [][]byte // datagrams queued, in arrival order
	waking  bool     // an rxWake is in flight
	win     [batchSize][]byte
	batch   []simSlot
	cur     int      // the slot being processed; later ones still hold unprocessed datagrams
	dirty   [][]bool // by message: bytes of dst the kernel wrote that no placement has covered since
	direct  int      // claimed payload bytes that were in place when placed ...
	copied  int      // ... and that had to be copied there
	clobber int      // bytes written into a window that did not belong there

	written     []bool // by sequence number: transmitted at least once
	sackedSeen  []bool // by sequence number: an ACK that reached the sender reported it held
	firstWrites int
	resends     int // writes of an already-written sequence number
	fast, rtos  int // ... split by what triggered them
	halvings    int
	dataLost    int // data datagrams the link dropped (first transmissions and re-sends alike)
	dataLate    int // data datagrams the link delivered behind later ones
	acksSent    int
	acksLost    int
	holeSince   time.Time     // when the receiver first held a datagram past a hole; zero when none
	holeMax     time.Duration // longest a hole stayed open at the receiver
}

var simEpoch = time.Unix(1_000_000, 0)

func newSim(t *testing.T, cfg simConfig) *sim {
	s := &sim{t: t, cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), now: simEpoch}
	s.tx.init(initialRTO, false)
	s.rx.init(defaultAckEvery)
	for i := 0; i < cfg.msgs; i++ {
		size := cfg.size
		if size == 0 {
			size = s.rng.Intn(cfg.maxFrags*cfg.payload + 1)
		}
		s.want = append(s.want, pattern(i, size))
		s.src = append(s.src, pattern(i, size))
		s.dst = append(s.dst, make([]byte, size))
		s.dirty = append(s.dirty, make([]bool, size))
	}
	s.letGo = make([]bool, cfg.msgs)
	s.consumed = make([]bool, cfg.msgs)
	s.giveUpAt = make([]time.Time, cfg.msgs)
	return s
}

func kindOf(msg int) Kind {
	if msg%4 == 3 {
		return Eager
	}
	return Rdv
}

// letGoOf plays the sender that may touch message msg's buffer again: it
// overwrites every byte of it.
func (s *sim) letGoOf(msg int) {
	s.letGo[msg] = true
	for i := range s.src[msg] {
		s.src[msg][i] = ^s.want[msg][i]
	}
}

// within reports whether b lies inside buf.
func within(b, buf []byte) bool {
	if len(b) == 0 || len(buf) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&buf[0]))
	return p >= lo && p < lo+uintptr(len(buf))
}

// offsetIn is where in buf b starts; b lies within buf.
func offsetIn(b, buf []byte) int {
	return int(uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&buf[0])))
}

func (s *sim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d at +%v: %s", s.cfg.seed, s.now.Sub(simEpoch), fmt.Sprintf(format, args...))
}

// transmit puts one datagram on l, applying its faults.
func (s *sim) transmit(l *link, kind arrivalKind, b []byte) fate {
	roll := s.rng.Float64()
	at := s.now.Add(l.delay)
	if l.jitter > 0 {
		at = at.Add(time.Duration(s.rng.Int63n(int64(l.jitter))))
	}
	if at.Before(l.last) {
		at = l.last
	}
	copies, what := 1, arrived
	switch {
	case roll < l.drop:
		return lost
	case roll < l.drop+l.dup:
		copies = 2
	case roll < l.drop+l.dup+l.reorder:
		at, what = at.Add(l.delay), reordered
	}
	if what != reordered {
		l.last = at
	}
	for i := 0; i < copies; i++ {
		s.ord++
		heap.Push(&s.net, arrival{at: at, ord: s.ord, what: kind, b: b})
	}
	return what
}

func mark(set *[]bool, seq uint64) (was bool) {
	for uint64(len(*set)) <= seq {
		*set = append(*set, false)
	}
	was = (*set)[seq]
	(*set)[seq] = true
	return was
}

// flush writes what the sender's last method returned, as UDP.flush
// does — reading each slot's payload view as the socket write would.
func (s *sim) flush() {
	for _, seq := range s.tx.wlist {
		sl := s.tx.slot(seq)
		if seq < uint64(len(s.sackedSeen)) && s.sackedSeen[seq] {
			s.fatalf("re-sent sequence number %d after an ACK reported the receiver holds it", seq)
		}
		h, err := parseHeader(sl.hdr[:])
		if err != nil {
			s.fatalf("slot %d carries a header that does not parse: %v", seq, err)
		}
		if s.consumed[h.tag] {
			s.fatalf("slot %d of message %d written after onConsumed returned", seq, h.tag)
		}
		if s.letGo[h.tag] && within(sl.payload, s.src[h.tag]) {
			s.fatalf("slot %d reads message %d's buffer after its sender was let go", seq, h.tag)
		}
		first := !mark(&s.written, seq)
		if first {
			s.firstWrites++
		} else {
			s.resends++
		}
		if first && int(seq) == s.cfg.dropNth {
			s.dataLost++
			continue
		}
		pkt := append(append(make([]byte, 0, len(sl.hdr)+len(sl.payload)), sl.hdr[:]...), sl.payload...)
		switch s.transmit(&s.cfg.fwd, dataDatagram, pkt) {
		case lost:
			s.dataLost++
		case reordered:
			s.dataLate++
		}
	}
	s.tx.stampWritten(s.now)
}

// simAckDelay is what peer.ackDelay settles at on a path this short.
const simAckDelay = minAckDelay

func (s *sim) sendAck() {
	a := s.rx.takeAck()
	var b [maxAckLen]byte
	s.acksSent++
	if s.transmit(&s.cfg.rev, ackDatagram, append([]byte(nil), b[:putAck(b[:], &a)]...)) == lost {
		s.acksLost++
	}
}

// simSink is the receiving engine's claimed buffer, dst[msg].
type simSink struct {
	s   *sim
	msg int
}

func (d simSink) Window(off, n int) []byte { return d.s.dst[d.msg][off : off+n] }

// Place is the engine's: a fragment already where it belongs is left
// alone, any other is copied. The harness checks, first, that what it
// writes is not a window where a later slot's datagram still waits to be
// processed, and that a fragment moved down from its own window ends
// before that window starts.
func (d simSink) Place(off int, frag []byte) bool {
	s, dst := d.s, d.s.dst[d.msg]
	for j := s.cur + 1; j < len(s.batch); j++ {
		if b := s.batch[j]; b.msg == d.msg && off < b.off+b.n && b.off < off+len(frag) {
			s.fatalf("placing [%d:%d) of message %d overwrites slot %d's unprocessed window [%d:%d)",
				off, off+len(frag), d.msg, j, b.off, b.off+b.n)
		}
	}
	switch {
	case len(frag) == 0:
	case &frag[0] == &dst[off]:
		s.direct += len(frag)
	default:
		if within(frag, dst) && off+len(frag) > offsetIn(frag, dst) {
			s.fatalf("fragment [%d:%d) of message %d moved down from a window starting at %d",
				off, off+len(frag), d.msg, offsetIn(frag, dst))
		}
		copy(dst[off:], frag)
		s.copied += len(frag)
	}
	clear(s.dirty[d.msg][off : off+len(frag)])
	return true
}

// Claim implements Handler: even messages go straight to a buffer of the
// receiver's.
func (s *sim) Claim(m Message, size int) Sink {
	if size != len(s.want[m.Tag]) {
		s.fatalf("asked to claim message %d at %d bytes, it has %d", m.Tag, size, len(s.want[m.Tag]))
	}
	if m.Tag%2 != 0 {
		return nil
	}
	return simSink{s, m.Tag}
}

// Deliver implements Handler: it checks the message and, for a Rdv one,
// sends the consumed notice on its way after a seeded think time.
func (s *sim) Deliver(m Message) {
	defer m.Buf.Release()
	if m.Tag != s.delivered {
		s.fatalf("delivered message %d, want %d next (exactly once, in order)", m.Tag, s.delivered)
	}
	got, claimed := m.Data, m.Tag%2 == 0 && len(s.want[m.Tag]) > 0
	if claimed {
		got = s.dst[m.Tag]
	}
	if (m.Sink != nil) != claimed || (m.Buf != nil) == claimed {
		s.fatalf("message %d: claimed=%v but delivered with Sink set=%v, Buf set=%v", m.Tag, claimed, m.Sink != nil, m.Buf != nil)
	}
	if claimed {
		// The receiver has its buffer back: nothing the kernel wrote into
		// it may be left uncovered, or still waiting to be processed.
		for i, d := range s.dirty[m.Tag] {
			if d {
				s.fatalf("message %d delivered with byte %d last written by a datagram that did not belong there", m.Tag, i)
			}
		}
		for j := s.cur + 1; j < len(s.batch); j++ {
			if b := s.batch[j]; b.msg == m.Tag && b.n > 0 {
				s.fatalf("message %d delivered while slot %d's datagram still sits in its buffer at [%d:%d)", m.Tag, j, b.off, b.off+b.n)
			}
		}
	}
	if m.Kind != kindOf(m.Tag) || !bytes.Equal(got, s.want[m.Tag]) {
		s.fatalf("message %d delivered as %v with wrong bytes", m.Tag, m.Kind)
	}
	s.delivered++
	if m.Kind == Rdv {
		at := s.now.Add(s.cfg.rev.delay + time.Duration(s.rng.Int63n(int64(s.cfg.rev.delay+s.cfg.gap)+1)))
		s.ord++
		s.notices++
		heap.Push(&s.net, arrival{at: at, ord: s.ord, what: consumedNotice, msg: m.Tag})
	}
}

// deliver is UDP.deliver on the receiving side.
func (s *sim) deliver(h header, frag []byte) {
	if m, ok := s.rx.reassemble(h, frag, s); ok {
		s.Deliver(m)
	}
}

// onConsumed is UDP.deliver on the side an RdvAck comes back to, and the
// engine behind it: the flow retires the message, then the sender is
// let go. A sender that already gave up is not there to hear it.
func (s *sim) onConsumed(msg int) {
	s.notices--
	s.tx.onConsumed(uint64(msg + 1))
	if !s.letGo[msg] {
		for seq := s.tx.base; seq < s.tx.nextSeq; seq++ {
			if h, _ := parseHeader(s.tx.slot(seq).hdr[:]); h.tag == msg {
				s.fatalf("slot %d of message %d still on the scoreboard after onConsumed", seq, msg)
			}
		}
		s.consumed[msg] = true
		s.letGoOf(msg)
	}
	s.flush()
}

// recvLoop is UDP.recvBatchLoop with the kernel inside: while datagrams
// are queued it asks the flow how far the next read may go and where to,
// lets the kernel fill that many slots, and dispatches them in order.
func (s *sim) recvLoop() {
	s.waking = false
	for len(s.sock) > 0 {
		// next takes the datagram the kernel hands out next: the queue's
		// first, or (nil) someone else's, a header and junk.
		next := func() (pkt []byte) {
			if s.rng.Float64() >= s.cfg.foreign {
				pkt, s.sock = s.sock[0], s.sock[1:]
			}
			return pkt
		}
		clear(s.win[:])
		n, look := s.rx.horizon(s.win[:])
		pkts := [][]byte{next()}
		if head := pkts[0]; look && head != nil {
			// The flow wants to see what comes next before it answers.
			h, err := parseSplitHeader(head[:dataHeaderLen], len(head)-dataHeaderLen)
			if err != nil {
				s.fatalf("data datagram does not parse: %v", err)
			}
			n = s.rx.preclaim(h, len(head)-dataHeaderLen, s, s.win[:])
		}
		if n < 1 || n > len(s.win) {
			s.fatalf("horizon asked for %d datagrams", n)
		}
		for len(pkts) < n && len(s.sock) > 0 {
			pkts = append(pkts, next())
		}
		s.batch = s.batch[:0]
		var frags [][]byte
		for i, pkt := range pkts {
			frags = append(frags, s.land(i, pkt))
		}
		for i, pkt := range pkts {
			s.cur = i
			if pkt != nil {
				s.onData(pkt[:dataHeaderLen], frags[i])
			}
		}
		s.batch, s.cur = s.batch[:0], 0
	}
}

// land is the kernel filling slot i with pkt: the payload goes to the
// slot's window, running on into the slot's own buffer when it is longer
// (and is then put together again there, as readBatch does), or to the
// slot's own buffer altogether. It returns where the payload is.
func (s *sim) land(i int, pkt []byte) (frag []byte) {
	payload := pkt[min(len(pkt), dataHeaderLen):]
	if pkt == nil {
		payload = bytes.Repeat([]byte{0xA5}, s.rng.Intn(s.cfg.payload+20))
	}
	w := s.win[i]
	if len(w) == 0 {
		s.batch = append(s.batch, simSlot{msg: -1})
		return append([]byte(nil), payload...)
	}
	claim, placed := s.rx.sink, s.rx.asmGot
	if s.rx.pre != nil {
		claim, placed = s.rx.pre, 0 // claimed ahead of its first datagram
	}
	sink, open := claim.(simSink)
	if !open || !within(w, s.dst[sink.msg]) {
		s.fatalf("slot %d aimed at a window with no claimed message open", i)
	}
	b := simSlot{msg: sink.msg, off: offsetIn(w, s.dst[sink.msg]), n: copy(w, payload)}
	if b.off < placed || b.msg < s.delivered {
		s.fatalf("slot %d aimed at [%d:%d) of message %d, which has %d bytes placed and %d messages delivered before it",
			i, b.off, b.off+len(w), b.msg, placed, s.delivered)
	}
	for j := b.off; j < b.off+b.n; j++ {
		s.dirty[b.msg][j] = true
	}
	s.batch = append(s.batch, b)
	if len(payload) > len(w) {
		return append([]byte(nil), payload...)
	}
	return w[:len(payload)]
}

// onData is UDP.dispatch and UDP.handleData without the lock and the
// counters. A fragment the kernel put exactly where it belongs must get
// there without a copy.
func (s *sim) onData(hdr, frag []byte) {
	h, err := parseSplitHeader(hdr, len(frag))
	if err != nil {
		s.fatalf("data datagram does not parse: %v", err)
	}
	b := s.batch[s.cur]
	hit := b.n > 0 && b.n == len(frag) && within(frag, s.dst[b.msg]) &&
		h.seq == s.rx.nextSeq && h.tag == b.msg && h.offset == b.off
	if b.n > 0 && !hit {
		s.clobber += b.n
	}
	copied := s.copied
	inOrder, ackNow := s.rx.onData(h, frag, s.now, simAckDelay)
	if inOrder {
		s.deliver(h, frag)
		for i := range s.rx.ready {
			d := &s.rx.ready[i]
			s.deliver(d.h, d.frag())
			d.buf.Release()
		}
	}
	if hit && s.copied != copied {
		s.fatalf("fragment [%d:%d) of message %d arrived in place and %d bytes were copied all the same",
			b.off, b.off+b.n, b.msg, s.copied-copied)
	}
	switch open := s.rx.hold.len() > 0; {
	case open && s.holeSince.IsZero():
		s.holeSince = s.now
	case !open && !s.holeSince.IsZero():
		s.holeMax = max(s.holeMax, s.now.Sub(s.holeSince))
		s.holeSince = time.Time{}
	}
	if ackNow {
		s.sendAck()
	}
}

// onAck is UDP.handleAck without the lock and the counters.
func (s *sim) onAck(b []byte) {
	a, err := parseAck(b)
	if err != nil {
		s.fatalf("ack does not parse: %v", err)
	}
	for _, r := range a.ranges[:a.n] {
		for seq := r.first; seq <= r.last; seq++ {
			mark(&s.sackedSeen, seq)
		}
	}
	_, fast, halved := s.tx.onAck(&a, s.now)
	s.fast += fast
	if halved {
		s.halvings++
	}
	s.flush()
}

// tick is UDP.retransmitPass plus UDP.ackFlushPass, after the senders
// whose patience ran out have given up (the engine's abandonRdv).
func (s *sim) tick() {
	for msg, at := range s.giveUpAt {
		if !at.IsZero() && !s.now.Before(at) && !s.letGo[msg] {
			s.tx.unpin(uint64(msg + 1))
			s.letGoOf(msg)
		}
	}
	retx, halved := s.tx.onTick(s.now, false)
	s.rtos += retx
	if halved {
		s.halvings++
	}
	s.flush()
	if s.rx.ackDueAt(s.now) {
		s.sendAck()
	}
}

// tickInterval is UDP.tickInterval on an ideal timer: no 100µs floor, so
// a deferred ACK leaves exactly when it is due.
func (s *sim) tickInterval() time.Duration {
	d := 10 * time.Millisecond
	if s.tx.q.len() > 0 {
		d = min(d, s.tx.rto/2)
	}
	if s.rx.unacked > 0 && !s.rx.ackDue.IsZero() {
		d = min(d, s.rx.ackDue.Sub(s.now))
	}
	return max(d, time.Microsecond)
}

// run plays the scenario to completion: every message delivered and
// every datagram acknowledged.
func (s *sim) run() {
	sent := 0
	nextSend := s.now
	nextTick := s.now.Add(s.tickInterval())
	deadline := s.now.Add(time.Minute)
	for s.delivered < s.cfg.msgs || s.tx.q.len() > 0 || s.notices > 0 {
		if s.now.After(deadline) {
			s.fatalf("not done after a virtual minute: %d/%d delivered, %d datagrams unacknowledged",
				s.delivered, s.cfg.msgs, s.tx.q.len())
		}
		switch {
		case sent < s.cfg.msgs && !nextSend.After(nextTick) && (len(s.net) == 0 || !nextSend.After(s.net[0].at)):
			s.now = nextSend
			s.tx.enqueue(Message{Dst: 1, Tag: sent, Kind: kindOf(sent), MsgID: uint64(sent + 1), Data: s.src[sent]}, s.cfg.payload)
			switch {
			case kindOf(sent) == Eager:
				s.letGoOf(sent) // the send completed at enqueue
			case sent%5 == 2:
				s.giveUpAt[sent] = s.now.Add(time.Duration(s.rng.Int63n(int64(time.Millisecond))))
			}
			s.flush()
			sent++
			if s.cfg.gap > 0 {
				nextSend = s.now.Add(time.Duration(s.rng.Int63n(int64(s.cfg.gap))))
			}
		case len(s.net) > 0 && !s.net[0].at.After(nextTick):
			a := heap.Pop(&s.net).(arrival)
			s.now = a.at
			switch a.what {
			case dataDatagram:
				s.sock = append(s.sock, a.b)
				if !s.waking {
					s.waking = true
					s.ord++
					wake := s.now.Add(time.Duration(s.rng.Int63n(int64(s.cfg.rxLag) + 1)))
					heap.Push(&s.net, arrival{at: wake, ord: s.ord, what: rxWake})
				}
			case rxWake:
				s.recvLoop()
			case ackDatagram:
				s.onAck(a.b)
			case consumedNotice:
				s.onConsumed(a.msg)
			}
		default:
			s.now = nextTick
			s.tick()
			nextTick = s.now.Add(s.tickInterval())
		}
		// ... and one that re-arms when work appears, where UDP.tickLoop
		// sleeps out an interval chosen before it did.
		if t := s.now.Add(s.tickInterval()); t.Before(nextTick) {
			nextTick = t
		}
	}
	if len(s.tx.pins) != 0 {
		s.fatalf("sender still pins %d messages with nothing left to send", len(s.tx.pins))
	}
	if s.rx.hold.len() != 0 || s.rx.asm != nil || s.rx.sink != nil || s.rx.pre != nil {
		s.fatalf("receiver retains %d held datagrams / a partial message after the last delivery", s.rx.hold.len())
	}
}

// lossy is the harness's standard scenario at a given loss rate: loss
// both ways plus a little duplication and reordering on a path of
// loopback scale (RTT well under minRTO, as the transport is tuned for),
// carrying 40 messages of up to 6 fragments in quick succession.
func lossy(seed int64, loss float64) simConfig {
	l := link{drop: loss, dup: 0.01, reorder: 0.02, delay: 10 * time.Microsecond, jitter: 5 * time.Microsecond}
	return simConfig{
		seed: seed, fwd: l, rev: l,
		msgs: 40, maxFrags: 6, payload: 64, gap: 300 * time.Microsecond,
		rxLag: 20 * time.Microsecond, foreign: 0.03,
	}
}

// TestFlowRecoverySeeds is the recovery contract over a thousand seeded
// fault schedules at each of four loss rates, none included: every
// message delivered exactly once, in order, byte-identical — claimed or
// pooled, though every sender overwrites its buffer the moment it is let
// go (checked in Deliver); no sequence number re-sent once an ACK
// reported it held, no slot of a message written after onConsumed
// returned for it, and no slot reading a buffer its sender has back
// (checked in flush); and the re-send volume bounded by what the path
// did to the flow.
//
// It is the receive placement's safety argument too. The harness's
// kernel writes every payload where horizon aimed its slot, so a
// datagram that was not the one predicted — a duplicate, a late or early
// one, someone else's — lands in a claimed buffer where it does not
// belong. Checked as it happens: a window is only ever aimed at a part
// of a still-open claim that has not been placed yet (land); a fragment
// that arrived in place is not copied (onData); no placement writes
// where a later slot's datagram still waits, and a fragment moved down
// from its window ends before the window starts (simSink.Place); and a
// message is delivered with every byte the kernel scribbled covered by
// the fragment that belongs there, and no unprocessed datagram left in
// its buffer (Deliver).
//
// A last run repeats the delivery checks on a long, jittery path, where
// the estimator and the backoff carry the recovery.
func TestFlowRecoverySeeds(t *testing.T) {
	const seeds = 1000
	for _, loss := range []float64{0, 0.01, 0.05, 0.20} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			var resends, fast, lost, acksLost, writes, direct, copied, clobber int
			for seed := *firstSeed; seed < *firstSeed+seeds; seed++ {
				s := newSim(t, lossy(seed, loss))
				s.run()
				// Every re-send answers something the path did. A lost data
				// datagram is re-sent once, by fast retransmit or — when too
				// few later datagrams arrived to expose it — by the clock,
				// and once more if that re-send is lost or its report is: 2
				// each. A datagram delivered late may draw one spurious fast
				// retransmit. A lost ACK leaves the clock to re-send what
				// only it acknowledged, at most the ackEvery datagrams since
				// the ACK before it. Replaying the window behind a loss, as
				// go-back-N did, breaks this budget on one seed in four.
				budget := 2*s.dataLost + s.dataLate + defaultAckEvery*s.acksLost
				if s.resends > budget {
					t.Errorf("seed %d: %d re-sends (%d fast, %d timeout) for %d lost and %d late data datagrams and %d lost acks: over the budget of %d",
						seed, s.resends, s.fast, s.rtos, s.dataLost, s.dataLate, s.acksLost, budget)
				}
				resends += s.resends
				fast += s.fast
				lost += s.dataLost
				acksLost += s.acksLost
				writes += s.firstWrites
				direct += s.direct
				copied += s.copied
				clobber += s.clobber
			}
			t.Logf("%d seeds: %d datagrams, %d lost (+%d acks), %d re-sent (%d by fast retransmit)",
				seeds, writes, lost, acksLost, resends, fast)
			t.Logf("claimed payload: %d bytes arrived in place, %d were copied; %d bytes landed where they did not belong",
				direct, copied, clobber)
			if fast == 0 && loss > 0 {
				t.Error("no fast retransmit in any seed: selective recovery is not engaging")
			}
			if direct == 0 || clobber == 0 {
				t.Errorf("%d bytes placed directly, %d mispredicted: the harness is not exercising both", direct, clobber)
			}
		})
	}
	t.Run("long-path", func(t *testing.T) {
		for seed := *firstSeed; seed < *firstSeed+seeds/4; seed++ {
			cfg := lossy(seed, 0.05)
			cfg.fwd.delay, cfg.fwd.jitter = 2*time.Millisecond, 500*time.Microsecond
			cfg.rev.delay, cfg.rev.jitter = cfg.fwd.delay, cfg.fwd.jitter
			newSim(t, cfg).run()
		}
	})
}

// TestFlowSingleLossRepairedInOneRTT drops one datagram in the middle of
// a window on an otherwise perfect 2ms-RTT path. The receiver sees the
// hole when the next datagram arrives; its ACKs name what it holds, the
// third tells the sender the datagram is lost, and the re-send closes
// the hole one round trip after it opened — not a retransmit timeout
// later (20ms on this fresh flow), and without re-sending anything else.
func TestFlowSingleLossRepairedInOneRTT(t *testing.T) {
	const oneWay = time.Millisecond
	path := link{delay: oneWay}
	s := newSim(t, simConfig{
		seed: 1, fwd: path, rev: path,
		msgs: 1, size: 20 * 64, payload: 64, // 20 datagrams, inside the initial window
		dropNth: 10,
	})
	s.run()
	if s.resends != 1 || s.fast != 1 || s.rtos != 0 {
		t.Errorf("re-sends = %d (%d fast, %d timeout), want exactly one fast retransmit", s.resends, s.fast, s.rtos)
	}
	if limit := 2*oneWay + simAckDelay; s.holeMax == 0 || s.holeMax > limit {
		t.Errorf("hole stayed open %v, want within one RTT plus the ack delay (%v)", s.holeMax, limit)
	}
	if s.halvings != 1 {
		t.Errorf("cwnd halvings = %d, want one for the one loss event", s.halvings)
	}
}

// TestFlowAckCoalescing is the delayed-ack ratio on a clean bulk flow:
// four 1MiB messages cost at most a quarter as many ACKs as data
// datagrams (one per ackEvery, plus the flush of each tail), and
// nothing is re-sent. (The socket version of this assertion failed on
// loaded hosts, where the flush timer fires between datagrams.)
func TestFlowAckCoalescing(t *testing.T) {
	path := link{delay: 10 * time.Microsecond}
	s := newSim(t, simConfig{seed: 1, fwd: path, rev: path, msgs: 4, size: 1 << 20, payload: maxPayload})
	s.run()
	if s.firstWrites < 4*s.acksSent {
		t.Errorf("ack reduction < 4×: %d data datagrams vs %d acks", s.firstWrites, s.acksSent)
	}
	if s.resends != 0 {
		t.Errorf("%d re-sends on a lossless path", s.resends)
	}
}

// TestFlowHorizon pins the read horizon state by state: how many
// datagrams the next batched read may take, and which of them are aimed
// at a window of the claimed buffer.
func TestFlowHorizon(t *testing.T) {
	const frag = 100
	const needsLook = "nothing open after a message of several datagrams"
	var f recvFlow
	f.init(defaultAckEvery)
	var win [batchSize][]byte
	check := func(state string, wantN int, wantWin ...int) {
		t.Helper()
		clear(win[:])
		if n, look := f.horizon(win[:]); n != wantN || look != (state == needsLook) {
			t.Errorf("%s: horizon = %d datagrams (look=%v), want %d", state, n, look, wantN)
		}
		for i := range win {
			want := 0
			if i < len(wantWin) {
				want = wantWin[i]
			}
			if len(win[i]) != want {
				t.Errorf("%s: slot %d aimed at a %d-byte window, want %d", state, i, len(win[i]), want)
			}
		}
	}
	// feed hands the flow message msg's fragment at off as the shell would.
	feed := func(hnd Handler, kind Kind, total, off, n int) (Message, bool) {
		h := header{seq: f.nextSeq, kind: kind, totalLen: total, offset: off}
		if inOrder, _ := f.onData(h, make([]byte, n), simEpoch, simAckDelay); !inOrder {
			t.Fatalf("fragment at %d not in order", off)
		}
		return f.reassemble(h, make([]byte, n), hnd)
	}
	claim := placer{}

	check("fresh flow", batchSize)
	feed(claim, Eager, frag, 0, frag)
	check("after a one-datagram message", batchSize)

	feed(claim, Rdv, 3*frag+40, 0, frag)
	check("claimed message open", 3, frag, frag, 40)
	sink := f.sink.(placed).buf
	if &win[0][0] != &sink[frag] || &win[2][0] != &sink[3*frag] {
		t.Error("windows are not the claimed buffer's own memory at the fragments' offsets")
	}
	if _, done := feed(claim, Rdv, 3*frag+40, frag, frag-1); done || f.asmGot != frag {
		t.Errorf("a fragment of the wrong size was taken in (%d bytes placed)", f.asmGot)
	}
	feed(claim, Rdv, 3*frag+40, frag, frag)
	check("two fragments to go", 2, frag, 40)

	f.onData(header{seq: f.nextSeq + 1, kind: Rdv, totalLen: 3*frag + 40, offset: 3 * frag}, make([]byte, 40), simEpoch, simAckDelay)
	check("a hole before the rest", batchSize)
	if _, done := feed(claim, Rdv, 3*frag+40, 2*frag, frag); done {
		t.Error("message complete before its held last fragment was delivered")
	}
	for i := range f.ready {
		d := &f.ready[i]
		if _, done := f.reassemble(d.h, d.frag(), claim); !done {
			t.Error("message not complete after its last fragment")
		}
		d.buf.Release()
	}
	check(needsLook, 1)
	feed(deliverFunc(nil), RdvAck, 0, 0, 0)
	if n, look := f.horizon(win[:]); n != 1 || !look {
		t.Errorf("an empty message in between changed the horizon to %d (look=%v)", n, look)
	}

	// The look: a datagram that is not the next in order, or opens
	// nothing, is read alone; one that opens a message has it claimed
	// before it is read, and every fragment aimed, the first included.
	opening := header{seq: f.nextSeq, kind: Rdv, totalLen: 2*frag + 10}
	for name, h := range map[string]header{
		"a later datagram": {seq: f.nextSeq + 1, kind: Rdv, totalLen: 2*frag + 10},
		"a later fragment": {seq: f.nextSeq, kind: Rdv, totalLen: 2*frag + 10, offset: frag},
		"an RdvAck":        {seq: f.nextSeq, kind: RdvAck},
	} {
		clear(win[:])
		if n := f.preclaim(h, frag, claim, win[:]); n != 1 || win[0] != nil || f.pre != nil {
			t.Errorf("looking at %s: read %d datagrams, claimed=%v", name, n, f.pre != nil)
		}
	}
	if n := f.preclaim(opening, frag, deliverFunc(nil), win[:]); n != 1 || win[0] != nil || f.pre != nil {
		t.Errorf("looking at a message nobody claims: read %d datagrams, claimed=%v", n, f.pre != nil)
	}
	clear(win[:])
	if n := f.preclaim(opening, frag, claim, win[:]); n != 3 || len(win[0]) != frag || len(win[2]) != 10 || f.pre == nil {
		t.Errorf("looking at a message's first datagram: read %d datagrams into windows of %d, .., %d bytes, claimed=%v",
			n, len(win[0]), len(win[2]), f.pre != nil)
	}
	if sink := f.pre; f.preclaim(opening, frag, claim, win[:]) != 3 || &f.pre.(placed).buf[0] != &sink.(placed).buf[0] {
		t.Error("a second look at the same datagram claimed a second receive")
	}
	feed(deliverFunc(nil), Rdv, 2*frag+10, 0, frag) // a handler that would not claim: the claim is pre's
	if f.sink == nil || &f.sink.(placed).buf[0] != &win[0][0] || f.pre != nil {
		t.Error("the message opened without taking over the claim made for it")
	}
	check("message claimed ahead open", 2, frag, 10)
	f.abandon()
	f.bulk = false

	feed(deliverFunc(nil), Eager, 40*frag, 0, frag)
	check("unclaimed message open: its fragments and no further, as they lie", batchSize)
	f.abandon()
	feed(deliverFunc(nil), Eager, 3*frag, 0, frag)
	check("unclaimed message open", 2)
	f.abandon()
}
