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
// buffers of its own — and checks what the shell's callers rely on.

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
}

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

// simSink is the receiving engine's claimed buffer.
type simSink []byte

func (d simSink) Place(off int, frag []byte) bool {
	copy(d[off:], frag)
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
	return simSink(s.dst[m.Tag])
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
		s.fatalf("message %d: claimed=%v but delivered with Sink=%v Buf=%v", m.Tag, claimed, m.Sink, m.Buf)
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

// onData is UDP.handleData without the lock and the counters.
func (s *sim) onData(pkt []byte) {
	h, err := parseHeader(pkt)
	if err != nil {
		s.fatalf("data datagram does not parse: %v", err)
	}
	inOrder, ackNow := s.rx.onData(h, pkt[dataHeaderLen:], s.now, simAckDelay)
	if inOrder {
		s.deliver(h, pkt[dataHeaderLen:])
		for i := range s.rx.ready {
			d := &s.rx.ready[i]
			s.deliver(d.h, d.frag())
			d.buf.Release()
		}
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
				s.onData(a.b)
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
	if s.rx.hold.len() != 0 || s.rx.asm != nil || s.rx.sink != nil {
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
	}
}

// TestFlowRecoverySeeds is the recovery contract over a thousand seeded
// fault schedules at each of three loss rates: every message delivered
// exactly once, in order, byte-identical — claimed or pooled, though
// every sender overwrites its buffer the moment it is let go (checked in
// Deliver); no sequence number re-sent once an ACK reported it held, no
// slot of a message written after onConsumed returned for it, and no
// slot reading a buffer its sender has back (checked in flush); and the
// re-send volume bounded by what the path did to the flow. A fourth run repeats the first two checks on a long, jittery
// path, where the estimator and the backoff carry the recovery.
func TestFlowRecoverySeeds(t *testing.T) {
	const seeds = 1000
	for _, loss := range []float64{0.01, 0.05, 0.20} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			var resends, fast, lost, acksLost, writes int
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
			}
			t.Logf("%d seeds: %d datagrams, %d lost (+%d acks), %d re-sent (%d by fast retransmit)",
				seeds, writes, lost, acksLost, resends, fast)
			if fast == 0 {
				t.Error("no fast retransmit in any seed: selective recovery is not engaging")
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
