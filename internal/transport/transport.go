// Package transport is the engine's point-to-point substrate seam: the
// layer that decides how a message issued by one rank reaches another
// rank's endpoint. The engine routes through a Transport only for
// destinations the transport declares wired; everything else stays on
// the in-process channel path, so the default Chan transport is
// byte- and traffic-identical to the pre-seam engine by construction.
//
// # Message model
//
// A Transport moves whole engine-level messages (Message), not packets:
// framing, fragmentation and reliability are the backend's private
// business. Send is a synchronous, reliable, ordered enqueue: when it
// returns the message has its place in the (SrcWorld, Dst) stream and
// will be delivered in order as long as the peer stays reachable, which
// is exactly the MPI non-overtaking obligation the engine needs. What
// Send does with the payload depends on the kind, because the kinds
// differ in when their sender may touch its buffer again:
//
//   - Eager: the send completed at enqueue time, so Send copies the
//     payload out before returning and never looks at the caller's
//     buffer again.
//   - Rdv: the sender blocks until the matching RdvAck, so Send keeps
//     the caller's buffer (pins it) and writes datagrams straight from
//     it — no user-space copy on the way out. The pin has one lifetime
//     rule: the transport never reads a pinned buffer after the engine
//     has let the sender go. An arriving RdvAck therefore first retires
//     every datagram of its message (it proves they were all delivered,
//     in order) and only then reaches the Handler; and a sender that
//     stops waiting without an RdvAck (abort, cancellation) calls Unpin
//     first, which copies whatever is still unacknowledged into pooled
//     memory.
//
// On the receiving side the transport asks the Handler where a message
// should go before it has it: when the first fragment of a non-empty
// Eager or Rdv message arrives, Handler.Claim may answer with a Sink —
// the engine's posted receive — and every fragment is then placed
// straight into it, the completed message arriving through
// Handler.Deliver with Message.Sink set and no payload of its own. A
// fragment that arrives somewhere else is copied there (Sink.Place);
// on a batch-capable socket the UDP backend has the kernel write the
// fragments of a multi-fragment message where they belong (Sink.Window,
// see Receive placement), so that a byte of one is copied twice end to
// end, both times by the kernel: out of the sender's buffer and into
// the receiver's.
// Without a claim (and for empty messages and RdvAcks) the fragments
// are reassembled into a pooled bufpool buffer whose ownership
// transfers to Deliver.
//
// Three message kinds cross a transport: Eager carries a payload whose
// send completed at enqueue time; Rdv carries a rendezvous payload whose
// sender blocks until the receiver consumes it; RdvAck is the
// consumption notice that unblocks the Rdv sender. The ack rides the
// same reliable stream as data, so a lost datagram delays — never
// wedges — a rendezvous.
//
// # UDP framing format
//
// The UDP backend frames messages as length-delimited fragments over
// datagrams, little-endian throughout, encoded with binary PutUint*/
// Uint* (no per-packet allocation in steady state). A data datagram is
// a 54-byte header followed by the fragment payload — at most 32 KiB of
// it, so a power-of-two message is a whole number of full datagrams:
//
//	[0]     packet type (1 = data)
//	[1:9]   seq       — per-flow sequence number (first packet is 1)
//	[9:17]  msgID     — sender-assigned rendezvous correlation id
//	[17]    kind      — Eager | Rdv | RdvAck
//	[18:26] ctx       — communicator context id
//	[26:30] src       — sender's rank within ctx
//	[30:34] srcWorld  — sender's world rank
//	[34:38] dst       — destination world rank
//	[38:46] tag
//	[46:50] totalLen  — full message payload length
//	[50:54] offset    — this fragment's offset into the payload
//
// A message's fragments are consecutive datagrams of its flow, in offset
// order, and all carry as many bytes as the first except the last, which
// carries the rest; a receiver drops a fragment of any other size.
//
// An ACK datagram is 10 + 16·n bytes, n ≤ 4:
//
//	[0]      packet type (2 = ack)
//	[1:9]    cum   — every packet up to cum has been delivered
//	[9]      n     — number of selective ranges that follow
//	[10+16i:26+16i]  (first, last) — the receiver holds every packet of
//	         the inclusive range [first, last], out of order
//
// Ranges are ascending, disjoint, not touching, and all above cum+1
// (cum+1 is by definition the first packet missing). A receiver holding
// more than four runs reports the four lowest — the holes the sender
// must fill first. The parser rejects everything the encoder cannot
// produce (truncation, n > 4, a range at or below cum+1, last < first,
// unsorted or touching ranges, trailing bytes). There is one ACK
// format: every process of a world runs the same binary.
//
// # Retransmit contract
//
// A flow is the ordered packet stream between two socket addresses.
// Receivers deliver strictly in sequence order, hold out-of-order
// packets (up to 1024 past their position), drop duplicates, and
// acknowledge with their cumulative position and the ranges they hold
// (possibly coalesced — see Adaptive behavior). The one invariant the
// sender relies on: a receiver never drops a held packet before
// delivering it.
//
// Senders keep every packet on a sequence-indexed scoreboard until the
// cumulative ACK passes it, and recover selectively. A packet the
// receiver reported holding is marked, its payload let go of at once,
// and it is never sent again. A written packet with at least
// three reported-held sequence numbers above it is lost, not reordered:
// it is re-sent immediately, once, a round trip after the loss instead
// of a timeout after it (fast retransmit). Whatever that does not cover
// — a lost re-send, a loss at the tail with nothing behind it to expose
// it, a lost ACK — falls to the retransmit clock, which re-sends each
// written, unreported packet whose timeout has passed. An ACK that
// neither advances the cumulative position nor carries ranges (the
// re-ack of a duplicate) triggers nothing. Either detection counts as
// one congestion event per window.
//
// Loss, duplication and reordering (see Faulty) therefore cost latency,
// never correctness: delivery to the Handler is exactly-once and in
// flow order. Packets are retained and retransmitted without bound —
// abandoning a flow is the caller's decision (the engine's run
// watchdog), not the transport's.
//
// Close lingers (bounded) until every retained packet is acknowledged,
// because an Eager send completes at the engine level when it is
// enqueued: a process exiting right after its last send must not strand
// a message a peer is still blocked on. While draining, a flow
// retransmits every estimator RTO with no per-packet backoff, and the
// linger is bounded by max(5s, 64·RTO) of that same RTO: a peer that is
// still there gets 64 chances to acknowledge, and one that already
// exited costs the bound once rather than a backoff-inflated multiple
// of it. Close also sends its own deferred ACKs before the socket goes,
// so a peer draining at the same time is not left waiting for them.
//
// # Adaptive behavior
//
// The UDP backend adapts three mechanisms per flow. The previous,
// fixed-everything wire generation is not a configuration of this code:
// compare against it by checking out the commit that still carried it
// (72c2127, where BENCH_wire_throughput.json's baseline rows were
// recorded).
//
// Retransmit timeout: ACK round trips of never-retransmitted packets
// (Karn's rule) feed a Jacobson/Karels estimator — SRTT and RTTVAR with
// gains 1/8 and 1/4 — and the flow retransmits after RTO = SRTT +
// 4·RTTVAR, clamped to [200µs, 1s]. A selectively acknowledged packet
// is sampled when the ACK naming it arrives, not when the cumulative
// position finally passes it. A packet that times out repeatedly backs
// off exponentially (RTO·2^n, capped). Tests run this path too; the
// flow harness (flow_test.go) drives it under a virtual clock where a
// test needs determinism.
//
// Congestion window: the send window starts at 32 packets in slow start
// (+1 per acked packet), crosses into AIMD additive growth at the
// slow-start threshold, and on a loss — detected by selective ACKs or
// by a retransmit timeout — halves both cwnd and the threshold, at most
// once per outstanding window, flooring at 2 packets and capping at
// 256. Packets beyond the window queue unwritten and flush as ACKs
// reopen it.
//
// ACK coalescing: in-order data datagrams defer their cumulative ACK
// until 8 of them accumulate (ackEvery), the batched receive loop finds
// the socket empty, or a flush timer of ~RTO/4 of the reverse flow
// (clamped to [100µs, 5ms]) expires, whichever comes first; duplicates
// and out-of-order arrivals are acknowledged immediately, with the held
// ranges, since the sender is evidently retransmitting or has a hole to
// fill. The flush on drain is what keeps a deferred ACK from racing its
// sender's RTO: the
// runtime sleeps in whole milliseconds when the process is idle, so a
// sub-millisecond timer fires late, and a late ACK is a spurious
// timeout, a needless re-send and a halved window. The timer stays as
// the backstop: it alone serves the ReadFrom path, and a flow below
// ackEvery whose peers keep the loop busy. Lock rule: the drain flush
// runs on the receive goroutine inside the read's callback and takes
// each flow's recv.mu in turn; it never runs while aimRead holds one.
//
// Batched I/O: on Linux, the receive loop drains the socket with
// recvmmsg, every datagram scattered into two parts: its first 54 bytes
// into the head of the slot's buffer, its payload into the slot's
// target. It does so on any socket that hands out its file descriptor
// (SyscallConn): a raw *net.UDPConn, or a Faulty around one, which reads
// do not pass through. Flushes go through sendmmsg — each datagram a
// two-element gather of the scoreboard's header and the payload view,
// so a pinned payload leaves the caller's buffer without being copied —
// only on a raw *net.UDPConn, so that every datagram a wrapper writes
// meets its WriteTo (a Faulty's faults). The rest — wrapped writes, a
// wrapper without SyscallConn, other platforms, or a runtime refusal
// (ENOSYS) — falls back to per-datagram WriteTo/ReadFrom with identical
// wire behavior, assembling header and payload in one per-flow scratch
// buffer first. Kernel socket buffers are sized for a full window on
// any socket that can be sized, wrapped ones included.
//
// # Receive placement
//
// A recvmmsg slot's target is the rest of its own buffer unless the
// flow that delivered data last has a claimed message open with nothing
// missing before it. Then the next datagrams of that flow are, if they
// arrive in order, the message's remaining fragments — a message's
// fragments are contiguous in its flow and all of one size but the last
// — and the read is aimed at exactly those: slot i at the window of the
// Sink where the i-th of them belongs (recvFlow.horizon). A fragment
// that lands in its window is in place: Place finds it there, copies
// nothing, and counts it (metrics.WireDirectBytes).
//
// The same rule sets how far a read goes: to the end of an open message
// and no further, so that the datagram behind it, whose destination is
// not known yet, is not swallowed into a slot buffer. With nothing open
// after a message of several fragments, the next one probably has
// several too, and where they go is written in its first datagram: the
// loop looks at that datagram before reading it (a 54-byte MSG_PEEK of
// the socket's head) and, when it is the flow's next in order and opens
// a message, has the Handler claim the message there and then
// (recvFlow.preclaim) — the read that follows takes exactly that
// message, its first fragment aimed like the rest. When the look finds
// anything else (an ACK, an RdvAck, another flow, a message nobody
// claims) the read takes that one datagram alone. Single-datagram
// traffic and a flow repairing a hole are read as before, everything
// queued at once into the slot buffers, and never looked at.
//
// The prediction can be wrong — the slot catches an ACK, another flow's
// datagram, a duplicate, a datagram from beyond a hole — and nothing
// depends on it being right. The flow is handed every datagram the way
// it always was, with its payload wherever it landed: one that is not
// in place is copied to its place (or into the hold, or ignored), as
// from a slot buffer. What it scribbled over is harmless: a window lies
// at or beyond the open message's placed prefix, in a buffer whose
// receive cannot complete before every fragment has been placed, so
// each such byte is overwritten by the fragment that belongs there
// first. Nor can placing destroy a datagram still waiting in a later
// slot: windows ascend with the slots, a flow with an empty hold
// delivers at most one datagram per slot, so what is placed while slot
// i is processed ends where slot i+1's window starts; and a fragment
// moved down from its own window ends at or before that window (the
// copy is a memmove regardless). A window shorter than a full payload
// is backed by the slot buffer's tail, so a longer datagram than
// predicted is never truncated, only put together again in the slot
// buffer. flow_test.go plays the kernel against recvFlow.horizon under
// loss, duplication and reordering and checks each of these statements
// as it happens.
//
// One window is left open, and it is the one Place always had: a Sink
// refuses (Window returns nil, Place false) once its world has aborted,
// because the receive's caller may have returned; but the windows are
// asked for right before each non-blocking recvmmsg attempt — not
// before the wait for the socket, which is why the aiming (and the
// look) happen inside the read's callback — and the kernel writes
// after that. A
// world that aborts between the check and the write may see a buffer
// of a failed receive written once more, and a datagram read into it
// copied out of it; a receive that failed promises nothing about its
// buffer.
//
// # Structure
//
// The protocol logic lives in flow.go, in methods of the per-flow
// structs (sendFlow: scoreboard, pins, loss detection, RTT/RTO
// estimator, congestion window; recvFlow: position, hold, ack schedule,
// reassembly, placement and the read horizon) that take the current time
// and return what to write — no socket, clock, goroutine or metric
// inside them — so the recovery contract above is tested on a
// deterministic harness with a virtual clock (flow_test.go). The UDP
// type around them (udp.go) keeps the locks, the I/O and the counters.
package transport

import (
	"fmt"

	"repro/internal/bufpool"
)

// Transport names, as the CLIs' -transport flag and the provenance
// labels spell them.
const (
	ChanName = "chan"
	UDPName  = "udp"
)

// Kind classifies an engine-level message on the wire.
type Kind uint8

const (
	// Eager carries a full payload; the send completed when the
	// transport accepted the message.
	Eager Kind = iota
	// Rdv carries a full rendezvous payload; the sender blocks until a
	// matching RdvAck comes back.
	Rdv
	// RdvAck is the consumption notice for a Rdv message (no payload);
	// MsgID correlates it with the blocked sender.
	RdvAck
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Eager:
		return "eager"
	case Rdv:
		return "rdv"
	case RdvAck:
		return "rdv-ack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is one engine-level message crossing a transport.
type Message struct {
	Ctx      int64 // communicator context id
	Src      int   // sender's rank within Ctx (the matching key)
	SrcWorld int   // sender's world rank
	Dst      int   // destination world rank
	Tag      int
	Kind     Kind
	MsgID    uint64 // rendezvous correlation id (Rdv and RdvAck)
	// Data is the payload. On Send it is the caller's buffer: copied
	// before Send returns for Eager, pinned until the RdvAck (or Unpin)
	// for Rdv — see the package comment's message model. On delivery it
	// aliases Buf.B, or is nil when the payload went to Sink.
	Data []byte
	// Buf backs Data on delivered messages; ownership transfers to the
	// Handler, which must Release it (directly or through whatever the
	// payload was handed to). Nil on the Send side and on claimed
	// messages.
	Buf *bufpool.Buf
	// Sink, on a delivered message, is what Handler.Claim returned for
	// it: the payload has been placed there in full. Nil otherwise.
	Sink Sink
}

// Handler is the receiving end of the seam. Its methods are invoked
// from the transport's receive goroutine in per-flow order, so they
// must not block on transport progress (enqueuing a reply via Send is
// fine — Send never waits for the receive loop).
type Handler interface {
	// Claim is asked, for an Eager or Rdv message of size > 0 bytes whose
	// first fragment has arrived (or is the next thing in the socket),
	// where the payload should go. m describes the message and carries no
	// payload. A non-nil Sink is final and takes every fragment of the
	// message; nil leaves the transport to reassemble into pooled memory,
	// possibly after asking once more.
	Claim(m Message, size int) Sink
	// Deliver consumes one complete message.
	Deliver(m Message)
}

// Sink is a destination a Handler claimed for exactly one message.
type Sink interface {
	// Place copies frag to offset off of the destination; fragments come
	// in order and together cover the size Claim was told. It reports
	// false when the destination has been withdrawn (its receiver gave
	// up): the transport then discards the rest of the message and never
	// delivers it.
	Place(off int, frag []byte) bool
	// Window returns the n bytes of the destination at offset off, where
	// that part of the message belongs, so that the transport can have
	// the kernel write an arriving fragment there; nil when the
	// destination has been withdrawn. A fragment that did land in its
	// window is still announced through Place, frag being that memory.
	Window(off, n int) []byte
}

// Transport is the engine's pluggable point-to-point substrate.
//
// Hosted reports whether a rank's body runs in this process; Wire
// whether messages to a destination rank must cross the transport
// (ForceWire self-loop setups answer true for hosted ranks too). The
// engine consults Wire per send and never calls Send for unwired
// destinations, so the default in-process path pays one boolean branch.
type Transport interface {
	// Name labels the transport for provenance ("chan", "udp").
	Name() string
	Hosted(rank int) bool
	Wire(dst int) bool
	// Send reliably enqueues m for in-order delivery to the process
	// hosting m.Dst. It is synchronous (per-sender issue order is
	// preserved) and never blocks on the receive path. An Eager payload
	// is copied before Send returns; a Rdv payload stays pinned, as the
	// package comment's message model describes.
	Send(m Message) error
	// Unpin is called by a Rdv sender that stops waiting for its RdvAck:
	// when it returns, the transport no longer references the buffer
	// that was sent to dst under msgID. Unknown ids are ignored (the
	// message may long have been acknowledged).
	Unpin(dst int, msgID uint64)
	// Start begins delivering inbound messages to h. Calling Start
	// again replaces the handler (a fresh world rebinding a live
	// transport).
	Start(h Handler) error
	Close() error
}

// Chan is the default in-process transport: every rank is hosted,
// nothing is wired, and all traffic stays on the engine's channel path
// — byte- and traffic-identical to the pre-seam engine by construction
// (the engine never reaches Send when Wire is false everywhere).
type Chan struct{}

// Name implements Transport.
func (Chan) Name() string { return ChanName }

// Hosted implements Transport: every rank runs in this process.
func (Chan) Hosted(int) bool { return true }

// Wire implements Transport: nothing crosses a wire.
func (Chan) Wire(int) bool { return false }

// Send implements Transport. The engine routes nothing through an
// unwired transport, so reaching Send is a bug worth hearing about.
func (Chan) Send(m Message) error {
	return fmt.Errorf("transport: chan transport wires no destinations (got a send to rank %d)", m.Dst)
}

// Unpin implements Transport (nothing is ever pinned).
func (Chan) Unpin(int, uint64) {}

// Start implements Transport (nothing to deliver).
func (Chan) Start(Handler) error { return nil }

// Close implements Transport.
func (Chan) Close() error { return nil }

// New builds a transport from its CLI spelling: "chan" (or empty) for
// the in-process default, "udp" for a loopback self-loop UDP transport
// hosting all np ranks in this process with every message routed
// through a real socket (see SelfUDP). Multi-process UDP topologies need
// the explicit UDPConfig constructor — they cannot be described by a
// name alone.
func New(spec string, np int) (Transport, error) {
	switch spec {
	case "", ChanName:
		return Chan{}, nil
	case UDPName:
		return SelfUDP(np)
	default:
		return nil, fmt.Errorf("transport: unknown transport %q (%s|%s)", spec, ChanName, UDPName)
	}
}
