package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
)

// The flow core: both halves of a reliable datagram stream to one peer.
// It reads no clock, writes no metric and touches no socket; the shell
// (udp.go) passes the time in and writes and counts what it returns.

const (
	// initialRTO seeds the adaptive retransmit timeout before the first
	// RTT sample arrives. Loopback RTTs are microseconds; the first ACK
	// round-trip collapses the estimate to scale.
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
	// ackEvery is the delayed-ack coalescing threshold: a cumulative ACK
	// is forced after this many unacknowledged in-order data datagrams.
	ackEvery = 8
	// minAckDelay / maxAckDelay clamp the delayed-ack flush timer, which
	// tracks ~RTO/4 of the reverse flow's estimate.
	minAckDelay = 100 * time.Microsecond
	maxAckDelay = 5 * time.Millisecond
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

	// Adaptive RTO state (Jacobson/Karels).
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

func (f *sendFlow) init() {
	f.base, f.sendNext, f.nextSeq = 1, 1, 1
	f.rto = initialRTO
	f.rtoNanos.Store(int64(initialRTO))
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
	if !sampleFrom.IsZero() {
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
		if !draining && s.backoff < maxBackoff {
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
