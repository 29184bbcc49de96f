package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
)

const (
	// initialRTO seeds the adaptive retransmit timeout before the first
	// RTT sample arrives (and is the fixed default when adaptation is
	// disabled via RetransmitEvery). Loopback RTTs are microseconds; the
	// first ACK round-trip collapses the estimate to scale.
	initialRTO = 20 * time.Millisecond
	// minRTO / maxRTO clamp the adaptive estimate RTO = SRTT + 4·RTTVAR.
	// The floor keeps microsecond loopback variance from degenerating
	// into a zero timeout; the ceiling bounds recovery latency on a
	// congested or lossy path.
	minRTO = 200 * time.Microsecond
	maxRTO = time.Second
	// maxBackoff caps the per-packet exponential backoff shift: a packet
	// that keeps timing out waits rto<<backoff between retransmissions,
	// at most rto<<maxBackoff (further bounded by maxBackoffRTO).
	maxBackoff = 6
	// maxBackoffRTO bounds the backoff-inflated per-packet timeout so a
	// stalled peer is still probed a few times per drain window.
	maxBackoffRTO = 2 * time.Second
	// maxCwnd caps the congestion window. 256 packets is 8MiB of
	// in-flight data at the max datagram size.
	maxCwnd = 256
	// minCwnd is the congestion-window floor under sustained loss.
	minCwnd = 2
	// initialCwnd is where slow start begins for a fresh flow.
	initialCwnd = 32
	// defaultAckEvery is the delayed-ack coalescing threshold: a
	// cumulative ACK is forced after this many unacknowledged in-order
	// data datagrams (AckEvery overrides; 1 restores ack-per-datagram).
	defaultAckEvery = 8
	// minAckDelay / maxAckDelay clamp the delayed-ack flush timer, which
	// tracks ~RTO/4 of the reverse flow's estimate.
	minAckDelay = 100 * time.Microsecond
	maxAckDelay = 5 * time.Millisecond
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
	// dupThresh is how many higher sequence numbers the receiver must
	// report holding before an unacknowledged datagram counts as lost
	// rather than reordered (TCP's three duplicate ACKs).
	dupThresh = 3
	// maxHold bounds how far past its in-order position a receiver holds
	// datagrams: four full windows. Anything further ahead is dropped on
	// arrival (never held, so never reported) and left to the sender's
	// timeout — a forged sequence number cannot size the hold.
	maxHold = 4 * maxCwnd
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
	// stable address). When nil the transport binds Listen.
	Conn net.PacketConn
	// Listen is the address to bind when Conn is nil; empty means an
	// ephemeral loopback port ("127.0.0.1:0").
	Listen string
	// ForceWire routes every message through the socket even for hosted
	// ranks, defaulting each rank's peer address to the transport's own
	// socket. Single-process benchmarks use this to exercise the real
	// datagram path without spawning processes.
	ForceWire bool
	// RetransmitEvery pins a fixed retransmit timeout and disables the
	// adaptive RTT estimator and per-packet backoff — the escape hatch
	// that keeps Faulty-based tests deterministic. Zero selects the
	// adaptive path (Jacobson/Karels SRTT/RTTVAR from ACK round-trips).
	RetransmitEvery time.Duration
	// AckEvery overrides the delayed-ack coalescing threshold (default
	// 8). 1 acknowledges every data datagram.
	AckEvery int
	// PacketBytes caps outbound datagram size, header included. Zero
	// selects maxDatagram (the 54-byte header plus a 32KiB fragment —
	// right for loopback and jumbo-frame paths); paths with a 1500-byte
	// MTU should set a value that dodges IP fragmentation. Clamped to
	// [dataHeaderLen+1, maxDatagram]; receivers accept up to maxDatagram
	// regardless.
	PacketBytes int
}

// UDP is the datagram transport backend: reliable, in-order message
// delivery over unreliable packets, per the package-level framing and
// retransmit contract. One UDP value serves every world booted on it.
type UDP struct {
	np       int
	hosted   []bool
	force    bool
	conn     net.PacketConn
	uc       *net.UDPConn  // conn when it is a raw UDP socket: allocation-free single writes
	rto      time.Duration // initial (or fixed) retransmit timeout
	fixedRTO bool          // RetransmitEvery pinned: no adaptation, no backoff
	ackEvery int
	payload  int // max fragment payload per datagram
	bio      *batchIO
	sendTo   []*peer // by destination rank; nil for ranks without an address
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

// seqRing is a queue indexed by sequence number: when its first element
// stands for sequence number s, element i stands for s+i. Elements are
// values in one backing array, so queueing a datagram allocates nothing
// once the ring has grown to the flow's working size.
type seqRing[T any] struct {
	buf  []T // length zero or a power of two
	head int
	n    int
}

func (r *seqRing[T]) len() int { return r.n }

func (r *seqRing[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends a zero element and returns it.
func (r *seqRing[T]) push() *T {
	if r.n == len(r.buf) {
		grown := make([]T, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.n++
	return r.at(r.n - 1)
}

// pop drops the first element, zeroing it so the ring retains nothing.
func (r *seqRing[T]) pop() {
	var zero T
	*r.at(0) = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// slot is one datagram on the sender's scoreboard, from enqueue until
// the cumulative ACK passes it: the encoded header, inline, and a view
// of the fragment's payload. The view is pooled memory the slot owns
// (buf backs it) or, for a fragment of a pinned Rdv message, the
// caller's own buffer (buf is nil) — see sendFlow.pins.
type slot struct {
	hdr     [dataHeaderLen]byte
	payload []byte       // nil once sacked
	buf     *bufpool.Buf // backs payload unless it is pinned or empty
	sent    time.Time    // last write; meaningful below sendFlow.sendNext
	retx    bool         // re-sent at least once: no RTT sample (Karn)
	fast    bool         // already repaired by a fast retransmit: further loss is the RTO's
	sacked  bool         // the receiver reported holding it: never re-sent
	backoff uint8        // exponential-backoff shift applied to the next timeout
}

// sampleAfter folds the slot into an ACK's RTT sample point, the latest
// first transmission among the slots the ACK newly acknowledges: a slot
// that was re-sent never counts (Karn).
func (s *slot) sampleAfter(t time.Time) time.Time {
	if !s.retx && s.sent.After(t) {
		return s.sent
	}
	return t
}

// release lets go of the slot's payload: it will not be written again.
func (s *slot) release() {
	s.buf.Release()
	s.buf, s.payload = nil, nil
}

// pin records a Rdv message whose slots [first, last] view the sender's
// own buffer rather than a copy of it.
type pin struct {
	msgID       uint64
	first, last uint64
}

// sendFlow is the sender half of a flow: the scoreboard of datagrams
// not yet cumulatively acknowledged, loss detection, the RTT/RTO
// estimator and the congestion window. Apart from the lock, its methods
// are pure protocol logic: they take the current time, touch no socket,
// clock or metric, and leave in wlist the sequence numbers the caller
// must write (then stamp, with stampWritten).
type sendFlow struct {
	mu sync.Mutex

	fixedRTO bool // no estimator, no backoff

	base     uint64        // lowest unacknowledged sequence number: q's first element
	sendNext uint64        // lowest never-written sequence number; writes are in order
	nextSeq  uint64        // next sequence number to assign (first packet is 1)
	q        seqRing[slot] // [base, nextSeq); [sendNext, nextSeq) waits for the window
	sacked   int           // sacked slots in q

	// pins lists, in sequence order, the Rdv messages with slots still
	// on the scoreboard that read the caller's buffer. The rendezvous
	// contract keeps that buffer untouched while its sender waits; the
	// flow lets go of it before the sender stops waiting, one of three
	// ways: the cumulative ACK passes the message, its RdvAck arrives
	// (onConsumed), or the sender gives up (unpin).
	pins []pin

	// Adaptive RTO state (Jacobson/Karels; frozen when fixedRTO).
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration

	// Congestion state (slow start + AIMD).
	cwnd     float64
	ssthresh float64
	recover  uint64 // loss-event fence: halve at most once per window

	// rtoNanos mirrors rto for lock-free reads by the reverse recvFlow's
	// delayed-ack timing.
	rtoNanos atomic.Int64

	wlist []uint64 // sequence numbers to write, set by the last method that returns work

	// Write scratch of the I/O shell: the gather list and sendmmsg state
	// of the batch path, the assembled datagram of the single-write path.
	wdgrams []datagram
	batch   batchWriter
	scratch []byte
}

func (f *sendFlow) init(rto time.Duration, fixedRTO bool) {
	f.fixedRTO = fixedRTO
	f.base, f.sendNext, f.nextSeq = 1, 1, 1
	f.rto = rto
	f.rtoNanos.Store(int64(rto))
	f.cwnd, f.ssthresh = initialCwnd, maxCwnd
}

func (f *sendFlow) slot(seq uint64) *slot { return f.q.at(int(seq - f.base)) }

// window is the flow's current send window in packets.
func (f *sendFlow) window() uint64 {
	w := uint64(f.cwnd)
	if w < minCwnd {
		w = minCwnd
	}
	return w
}

// enqueue frames m into sequenced fragments of at most payload bytes at
// the tail of the scoreboard and leaves in wlist the fragments the
// window admits now. A Rdv message is pinned — its slots view m.Data
// itself; an Eager payload is copied, a pooled buffer per fragment.
func (f *sendFlow) enqueue(m Message, payload int) {
	f.wlist = f.wlist[:0]
	total := len(m.Data)
	pinned := m.Kind == Rdv
	first := f.nextSeq
	for off := 0; ; {
		frag := min(total-off, payload)
		s := f.q.push()
		putHeader(s.hdr[:], header{
			seq: f.nextSeq, msgID: m.MsgID, kind: m.Kind, ctx: m.Ctx,
			src: m.Src, srcWorld: m.SrcWorld, dst: m.Dst, tag: m.Tag,
			totalLen: total, offset: off,
		})
		switch {
		case pinned:
			s.payload = m.Data[off : off+frag]
		case frag > 0:
			s.buf = bufpool.Get(frag)
			s.payload = s.buf.B
			copy(s.payload, m.Data[off:])
		}
		f.nextSeq++
		off += frag
		if off >= total {
			break
		}
	}
	if pinned {
		f.pins = append(f.pins, pin{msgID: m.MsgID, first: first, last: f.nextSeq - 1})
	}
	f.admit()
}

// pinOf finds msgID among the pinned messages, -1 when it is not there.
func (f *sendFlow) pinOf(msgID uint64) int {
	for i := range f.pins {
		if f.pins[i].msgID == msgID {
			return i
		}
	}
	return -1
}

// unpin ends the flow's use of the caller's buffer for message msgID,
// whose sender is about to stop waiting: every slot of it that may
// still be written gets a pooled copy of its fragment.
func (f *sendFlow) unpin(msgID uint64) {
	i := f.pinOf(msgID)
	if i < 0 {
		return
	}
	for seq := max(f.pins[i].first, f.base); seq <= f.pins[i].last; seq++ {
		if s := f.slot(seq); len(s.payload) > 0 {
			s.buf = bufpool.Get(len(s.payload))
			copy(s.buf.B, s.payload)
			s.payload = s.buf.B
		}
	}
	f.pins = append(f.pins[:i], f.pins[i+1:]...)
}

// onConsumed applies the RdvAck of message msgID, which proves every
// datagram up to the message's last was delivered in order: it is a
// cumulative ACK through that sequence number (no RTT sample — the
// round trip includes the receiver's time to consume). Once it returns
// no slot of the message is on the scoreboard, so the sender may be let
// go. It leaves in wlist the queued datagrams the advanced window
// admits and reports how many slots it retired. An unknown msgID — the
// transport's own ACK got there first — retires nothing.
func (f *sendFlow) onConsumed(msgID uint64) (retired int) {
	f.wlist = f.wlist[:0]
	if i := f.pinOf(msgID); i >= 0 {
		retired, _ = f.retire(f.pins[i].last)
		f.ccOnAck(retired)
	}
	f.admit()
	return retired
}

// retire pops every slot up to cum (clamped to what was written) off
// the scoreboard, and the sacked slots right behind them: the receiver
// holds those and has everything before them, so it has delivered them
// too — and nothing else would move the base past a slot that is never
// re-sent. It forgets the pins the new base has passed, and reports how
// many slots went and the RTT sample point among those not reported
// held before (see slot.sampleAfter).
func (f *sendFlow) retire(cum uint64) (retired int, sampleFrom time.Time) {
	for cum = min(cum, f.sendNext-1); f.base <= cum || (f.q.len() > 0 && f.q.at(0).sacked); f.base++ {
		if s := f.q.at(0); s.sacked {
			f.sacked--
		} else {
			sampleFrom = s.sampleAfter(sampleFrom)
			s.release()
		}
		f.q.pop()
		retired++
	}
	passed := 0
	for passed < len(f.pins) && f.pins[passed].last < f.base {
		passed++
	}
	if passed > 0 {
		f.pins = f.pins[:copy(f.pins, f.pins[passed:])]
	}
	return retired, sampleFrom
}

// admit appends to wlist every queued datagram the window now covers.
func (f *sendFlow) admit() {
	for end := min(f.nextSeq, f.base+f.window()); f.sendNext < end; f.sendNext++ {
		f.wlist = append(f.wlist, f.sendNext)
	}
}

// stampWritten starts the retransmit clock of the datagrams in wlist.
func (f *sendFlow) stampWritten(now time.Time) {
	for _, seq := range f.wlist {
		f.slot(seq).sent = now
	}
}

// onAck applies one ACK: it retires everything up to a.cum, marks the
// ranged slots sacked and lets go of their payloads at once, feeds the
// estimator and the congestion window, and declares lost — to be re-sent
// now, once, Karn-marked, without a backoff step — every written,
// un-sacked slot with at least dupThresh sacked sequence numbers above
// it. An ACK without ranges that retires nothing (the re-ack of a
// duplicate) therefore triggers nothing. It leaves in wlist the fast
// retransmits (the first fast entries) followed by the queued datagrams
// the advanced window admits, and reports how many slots it retired and
// whether the loss opened a new congestion event.
//
// Marking a slot sacked on the word of a stale or reordered ACK is safe:
// a receiver never drops a held datagram before delivering it.
func (f *sendFlow) onAck(a *ack, now time.Time) (retired, fast int, halved bool) {
	f.wlist = f.wlist[:0]
	retired, sampleFrom := f.retire(a.cum)
	for _, r := range a.ranges[:a.n] {
		for seq, last := max(r.first, f.base), min(r.last, f.sendNext-1); seq <= last; seq++ {
			s := f.slot(seq)
			if s.sacked {
				continue
			}
			sampleFrom = s.sampleAfter(sampleFrom)
			s.release()
			s.sacked = true
			f.sacked++
		}
	}
	if !f.fixedRTO && !sampleFrom.IsZero() {
		f.observeRTT(now.Sub(sampleFrom))
	}
	f.ccOnAck(retired)
	if a.n > 0 {
		// Walk up from base while at least dupThresh sacked slots remain
		// above; everything below a sacked slot has been written.
		below := 0
		for seq := f.base; f.sacked-below >= dupThresh; seq++ {
			s := f.slot(seq)
			if s.sacked {
				below++
			} else if !s.fast {
				s.fast, s.retx = true, true
				f.wlist = append(f.wlist, seq)
				fast++
			}
		}
		halved = fast > 0 && f.ccOnLoss()
	}
	f.admit()
	return retired, fast, halved
}

// onTick is the retransmit clock: it leaves in wlist every written,
// un-sacked datagram of the window whose timeout has passed
// (Karn-marked, its next timeout backed off exponentially) followed by
// the queued datagrams the window admits, and reports how many timed out
// and whether that opened a new congestion event. A draining flow
// (Close's linger) retransmits at the estimator RTO with no backoff.
func (f *sendFlow) onTick(now time.Time, draining bool) (retx int, halved bool) {
	f.wlist = f.wlist[:0]
	for seq, end := f.base, min(f.sendNext, f.base+f.window()); seq < end; seq++ {
		s := f.slot(seq)
		if s.sacked {
			continue
		}
		timeout := f.rto
		if !draining {
			timeout = backoffRTO(f.rto, s.backoff)
		}
		if now.Sub(s.sent) < timeout {
			continue
		}
		s.retx = true
		if !f.fixedRTO && !draining && s.backoff < maxBackoff {
			s.backoff++
		}
		f.wlist = append(f.wlist, seq)
		retx++
	}
	halved = retx > 0 && f.ccOnLoss()
	f.admit()
	return retx, halved
}

// observeRTT folds one ACK round-trip sample into the Jacobson/Karels
// estimator and refreshes RTO = SRTT + 4·RTTVAR within [minRTO, maxRTO].
// Callers have already excluded retransmitted packets (Karn's rule).
func (f *sendFlow) observeRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
	} else {
		d := f.srtt - sample
		if d < 0 {
			d = -d
		}
		f.rttvar = (3*f.rttvar + d) / 4
		f.srtt = (7*f.srtt + sample) / 8
	}
	rto := f.srtt + 4*f.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	f.rto = rto
	f.rtoNanos.Store(int64(rto))
}

// ccOnAck grows the congestion window for acked packets: +1 per packet
// in slow start up to ssthresh, then +acked/cwnd (AIMD additive phase),
// capped at maxCwnd.
func (f *sendFlow) ccOnAck(acked int) {
	if acked <= 0 {
		return
	}
	a := float64(acked)
	if f.cwnd < f.ssthresh {
		f.cwnd += a
		if f.cwnd > f.ssthresh {
			f.cwnd = f.ssthresh
		}
	} else {
		f.cwnd += a / f.cwnd
	}
	if f.cwnd > maxCwnd {
		f.cwnd = maxCwnd
	}
}

// ccOnLoss registers a loss event, however it was detected (dupThresh
// sacked datagrams above a hole, or a retransmit timeout): at most once
// per outstanding window (the recover fence), ssthresh and cwnd halve,
// flooring at minCwnd. It reports whether this loss started a new event.
func (f *sendFlow) ccOnLoss() bool {
	if f.base < f.recover {
		return false // still recovering from the previous halving
	}
	f.recover = f.nextSeq
	half := f.cwnd / 2
	if half < minCwnd {
		half = minCwnd
	}
	f.ssthresh = half
	f.cwnd = half
	return true
}

// backoffRTO is the effective timeout of a packet that has already
// timed out `shift` times: rto<<shift, bounded by maxBackoffRTO.
func backoffRTO(rto time.Duration, shift uint8) time.Duration {
	eff := rto << shift
	if eff > maxBackoffRTO || eff < rto { // overflow-safe
		return maxBackoffRTO
	}
	return eff
}

// held is one out-of-order datagram in the receiver's hold: its parsed
// header and a pooled copy of its payload alone (nil when empty), so a
// full fragment stays in the fragment's own size class.
type held struct {
	present bool
	h       header
	buf     *bufpool.Buf
}

// frag is the held payload.
func (d *held) frag() []byte {
	if d.buf == nil {
		return nil
	}
	return d.buf.B
}

// recvFlow is the receiver half of a flow: the in-order delivery
// position, the hold of out-of-order datagrams, the delayed-ack schedule
// and the message under reassembly. Like sendFlow's, its methods are
// pure: the caller supplies the time and writes the ACKs they return.
//
// The invariant the sender's scoreboard rests on: a datagram, once held,
// is never dropped before it is delivered.
type recvFlow struct {
	mu sync.Mutex

	ackEvery int
	nextSeq  uint64
	// hold element i is the datagram nextSeq+i, absent while missing.
	// When non-empty it starts with the hole at nextSeq and ends with a
	// held datagram.
	hold  seqRing[held]
	ready []held // held datagrams the last onData released, in order

	// The message under reassembly goes to sink when the handler claimed
	// it, to the pooled asm otherwise; both nil between messages. Its
	// first fragment's length is the sender's fragment size: every
	// fragment but the last has it.
	sink    Sink
	asm     *bufpool.Buf
	asmLen  int
	asmGot  int
	asmFrag int
	// bulk is set while the last message that had a payload took more
	// than one datagram: the next message probably does too.
	bulk bool
	// pre is the claim of a message whose first datagram, sequence
	// number preSeq, was seen at the head of the socket's queue but not
	// read yet (see preclaim); reassemble takes it over when that
	// datagram arrives.
	pre    Sink
	preSeq uint64

	unacked int       // in-order data datagrams since the last ack sent
	ackDue  time.Time // deadline for the delayed cumulative ack; zero when none pending
}

func (f *recvFlow) init(ackEvery int) { f.ackEvery, f.nextSeq = ackEvery, 1 }

// onData places the data datagram with header h and payload frag. When
// it is the next in order, inOrder is set and the caller delivers it and
// then every datagram in ready (releasing each); an early datagram is
// copied into the hold; a duplicate changes nothing. ackNow asks the
// caller to write takeAck's ACK at once — always for a duplicate or an
// early arrival (the sender may be timing out or filling a hole), and
// once ackEvery in-order datagrams are unacknowledged; otherwise the ACK
// is deferred until now+delay at the latest (see ackDueAt).
func (f *recvFlow) onData(h header, frag []byte, now time.Time, delay time.Duration) (inOrder, ackNow bool) {
	f.ready = f.ready[:0]
	if h.seq < f.nextSeq {
		return false, true
	}
	if off := h.seq - f.nextSeq; off > 0 {
		if off >= maxHold {
			return false, true
		}
		for uint64(f.hold.len()) <= off {
			f.hold.push()
		}
		if d := f.hold.at(int(off)); !d.present {
			*d = held{present: true, h: h}
			if len(frag) > 0 {
				d.buf = bufpool.Get(len(frag))
				copy(d.buf.B, frag)
			}
		}
		return false, true
	}
	f.nextSeq++
	f.unacked++
	if f.hold.len() > 0 {
		f.hold.pop() // the hole pkt filled
		for f.hold.len() > 0 && f.hold.at(0).present {
			f.ready = append(f.ready, *f.hold.at(0))
			f.hold.pop()
			f.nextSeq++
			f.unacked++
		}
	}
	if f.unacked >= f.ackEvery {
		return true, true
	}
	if f.ackDue.IsZero() {
		f.ackDue = now.Add(delay)
	}
	return true, false
}

// ackDueAt reports whether a deferred ACK's deadline has passed.
func (f *recvFlow) ackDueAt(now time.Time) bool {
	return f.unacked > 0 && !f.ackDue.IsZero() && !now.Before(f.ackDue)
}

// takeAck returns the ACK describing the flow now — the cumulative
// position plus the held ranges, lowest first when there are more than
// an ACK carries — and clears the delayed-ack schedule.
func (f *recvFlow) takeAck() ack {
	a := ack{cum: f.nextSeq - 1}
	for i, n := 1, f.hold.len(); i < n && a.n < maxAckRanges; i++ {
		if !f.hold.at(i).present {
			continue
		}
		first := i
		for i+1 < n && f.hold.at(i+1).present {
			i++
		}
		a.ranges[a.n] = seqRange{f.nextSeq + uint64(first), f.nextSeq + uint64(i)}
		a.n++
	}
	f.unacked = 0
	f.ackDue = time.Time{}
	return a
}

// reassemble folds one in-sequence fragment into the message under
// reassembly and returns the message once complete. Fragments of a
// message are contiguous in the flow (enqueue frames them in one go), so
// offset 0 always opens a fresh message: hnd (when not nil) is asked to
// claim a non-empty Eager or Rdv one, and the fragments then go straight
// to its Sink, which the completed message names; everything else is
// reassembled into a pooled buffer the caller owns. A Sink that refuses
// a fragment ends its message: the remaining fragments are discarded.
// So is a fragment of another size than the message's first (the last
// may be shorter): enqueue cuts a message evenly, and horizon's windows
// rest on that.
func (f *recvFlow) reassemble(h header, frag []byte, hnd Handler) (Message, bool) {
	if h.offset == 0 {
		f.abandon()
		f.asmLen, f.asmGot, f.asmFrag = h.totalLen, 0, len(frag)
		if h.totalLen > 0 {
			f.bulk = len(frag) < h.totalLen
		}
		if f.pre != nil && f.preSeq == h.seq {
			f.sink, f.pre = f.pre, nil
		} else if claimable(h, hnd) {
			f.sink = hnd.Claim(h.message(), h.totalLen)
		}
		if f.sink == nil {
			f.asm = bufpool.Get(h.totalLen)
		}
	}
	if (f.sink == nil && f.asm == nil) || h.offset != f.asmGot || h.totalLen != f.asmLen ||
		len(frag) != min(f.asmFrag, f.asmLen-f.asmGot) {
		return Message{}, false
	}
	if f.sink == nil {
		copy(f.asm.B[h.offset:], frag)
	} else if !f.sink.Place(h.offset, frag) {
		f.abandon()
		return Message{}, false
	}
	f.asmGot += len(frag)
	if f.asmGot < h.totalLen {
		return Message{}, false
	}
	m := h.message()
	if m.Sink = f.sink; m.Sink == nil {
		m.Data, m.Buf = f.asm.B, f.asm
	}
	f.sink, f.asm = nil, nil
	return m, true
}

// claimable reports whether the message h opens is one hnd is asked to
// claim: an Eager or Rdv message with a payload.
func claimable(h header, hnd Handler) bool {
	return hnd != nil && h.totalLen > 0 && (h.kind == Eager || h.kind == Rdv)
}

// horizon is the receive placement rule: how many datagrams the next
// batched read may take before it would swallow one whose destination
// is not known yet, and, in win, where the payloads of those it does
// take belong. While a message is open and nothing is missing before it,
// the next datagrams of the flow are its remaining fragments, in order:
// the read takes exactly those, each — for a claimed message — aimed at
// its window of the Sink. With nothing open after a message of several
// fragments, the next datagram probably opens another, and how far to
// read depends on it: look asks the caller to peek at it and, when it
// is this flow's, to let preclaim decide; failing that the read takes
// that one datagram alone. Otherwise (single-datagram traffic, or a hole
// being repaired) the read takes all there is, as it lies.
func (f *recvFlow) horizon(win [][]byte) (n int, look bool) {
	switch {
	case f.hold.len() > 0:
		return len(win), false
	case (f.sink != nil || f.asm != nil) && f.asmFrag > 0:
		return aimFragments(f.sink, f.asmGot, f.asmFrag, f.asmLen, win), false
	case f.bulk:
		return 1, true
	default:
		return len(win), false
	}
}

// preclaim is horizon's answer once the next datagram of the flow has
// been seen (not read): h its header, frag its payload length. If it is
// the next in order and opens a message, the message is claimed now —
// reassemble finds the claim in pre — and the read is aimed at all its
// fragments, the first included. A message nobody claims yet is left to
// reassemble, which asks again when its first datagram has been read.
func (f *recvFlow) preclaim(h header, frag int, hnd Handler, win [][]byte) int {
	if h.seq != f.nextSeq || h.offset != 0 || frag == 0 || !claimable(h, hnd) {
		return 1
	}
	if f.pre == nil || f.preSeq != h.seq { // not seen before (a read that failed looks twice)
		f.pre, f.preSeq = hnd.Claim(h.message(), h.totalLen), h.seq
	}
	if f.pre == nil {
		return 1
	}
	return aimFragments(f.pre, 0, frag, h.totalLen, win)
}

// aimFragments counts the fragments still to come of a message of total
// bytes, cut frag bytes apiece, of which got have been placed — at most
// len(win) of them — and aims win at their windows of sink (if any).
func aimFragments(sink Sink, got, frag, total int, win [][]byte) int {
	n := min(len(win), (total-got+frag-1)/frag)
	for i := 0; sink != nil && i < n; i++ {
		off := got + i*frag
		win[i] = sink.Window(off, min(frag, total-off))
	}
	return n
}

// abandon drops the message under reassembly, if any.
func (f *recvFlow) abandon() {
	f.asm.Release()
	f.sink, f.asm = nil, nil
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
		listen := cfg.Listen
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		var err error
		conn, err = net.ListenPacket("udp", listen)
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
	}
	if sb, ok := conn.(sockBuffers); ok {
		// Best effort: absorb a full send window without loopback drops.
		_ = sb.SetReadBuffer(socketBuf)
		_ = sb.SetWriteBuffer(socketBuf)
	}
	rto := cfg.RetransmitEvery
	if rto <= 0 {
		rto = initialRTO
	}
	ackEvery := cfg.AckEvery
	if ackEvery <= 0 {
		ackEvery = defaultAckEvery
	}
	pkt := cfg.PacketBytes
	if pkt <= dataHeaderLen || pkt > maxDatagram {
		pkt = maxDatagram
	}
	t := &UDP{
		np:       cfg.NP,
		force:    cfg.ForceWire,
		conn:     conn,
		rto:      rto,
		fixedRTO: cfg.RetransmitEvery > 0,
		ackEvery: ackEvery,
		payload:  pkt - dataHeaderLen,
		hosted:   make([]bool, cfg.NP),
		sendTo:   make([]*peer, cfg.NP),
		done:     make(chan struct{}),
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

// Name implements Transport.
func (t *UDP) Name() string { return UDPName }

// Addr returns the transport's bound socket address — what peers put in
// their UDPConfig.Peers entries.
func (t *UDP) Addr() net.Addr { return t.conn.LocalAddr() }

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
	p.send.init(t.rto, t.fixedRTO)
	p.recv.init(t.ackEvery)
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
	if !t.fixedRTO {
		t.gauge(metrics.WireSRTTMaxMicros, f.srtt.Microseconds())
		t.gauge(metrics.WireRTOMaxMicros, f.rto.Microseconds())
	}
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
	p.send.enqueue(m, t.payload)
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
	worst := t.rto
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
// that holds fewer than AckEvery unacknowledged datagrams while other
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
