package transport

import (
	"encoding/binary"
	"fmt"
)

// Packet types on the wire (first byte of every datagram). Anything
// else — e.g. the soak harness's textual HELLO/PEERS bootstrap packets
// sharing the socket — is silently dropped by the receive loop.
const (
	ptData = 1
	ptAck  = 2
)

// Wire sizes. maxPayload is the default fragment size: large enough
// that the per-datagram kernel cost stops dominating bulk flows, and a
// round 32KiB — exactly one bufpool size class, and a divisor of every
// larger power-of-two message, so a 2^k-byte chunk is 2^k/32KiB full
// datagrams with no runt behind them. maxDatagram, the receive-buffer
// ceiling, is that plus the header, still comfortably inside the 64KiB
// loopback MTU. Senders may fragment smaller (UDPConfig.PacketBytes —
// real paths with a 1500-byte MTU want datagrams that dodge IP
// fragmentation); receivers always accept up to maxDatagram. Messages
// larger than a fragment are split into sequential fragments of the
// same flow.
const (
	dataHeaderLen = 54
	// An ACK is ackBaseLen bytes plus ackRangeLen per selective range, at
	// most maxAckRanges of them.
	ackBaseLen   = 10
	ackRangeLen  = 16
	maxAckRanges = 4
	maxAckLen    = ackBaseLen + maxAckRanges*ackRangeLen
	maxPayload   = 32 << 10
	maxDatagram  = dataHeaderLen + maxPayload
	// maxWireMessage caps the totalLen a data header may claim. Untrusted
	// bytes reach parseHeader straight off the socket, and totalLen sizes
	// the receiver's reassembly allocation — without a cap, one forged
	// datagram could demand a multi-GiB buffer.
	maxWireMessage = 1 << 30
)

// header is the decoded 54-byte data-datagram header. The layout is
// documented in the package comment; all fields are little-endian.
type header struct {
	seq      uint64
	msgID    uint64
	kind     Kind
	ctx      int64
	src      int
	srcWorld int
	dst      int
	tag      int
	totalLen int
	offset   int
}

// message is the Message h's datagram is a fragment of, without its
// payload.
func (h header) message() Message {
	return Message{
		Ctx: h.ctx, Src: h.src, SrcWorld: h.srcWorld, Dst: h.dst,
		Tag: h.tag, Kind: h.kind, MsgID: h.msgID,
	}
}

// putHeader encodes h into b[:dataHeaderLen].
func putHeader(b []byte, h header) {
	b[0] = ptData
	binary.LittleEndian.PutUint64(b[1:9], h.seq)
	binary.LittleEndian.PutUint64(b[9:17], h.msgID)
	b[17] = byte(h.kind)
	binary.LittleEndian.PutUint64(b[18:26], uint64(h.ctx))
	binary.LittleEndian.PutUint32(b[26:30], uint32(h.src))
	binary.LittleEndian.PutUint32(b[30:34], uint32(h.srcWorld))
	binary.LittleEndian.PutUint32(b[34:38], uint32(h.dst))
	binary.LittleEndian.PutUint64(b[38:46], uint64(int64(h.tag)))
	binary.LittleEndian.PutUint32(b[46:50], uint32(h.totalLen))
	binary.LittleEndian.PutUint32(b[50:54], uint32(h.offset))
}

// parseHeader decodes a data datagram's header. The fragment payload is
// b[dataHeaderLen:]; its length is implicit in the datagram length.
func parseHeader(b []byte) (header, error) {
	if len(b) < dataHeaderLen {
		return header{}, fmt.Errorf("transport: short data datagram (%d bytes)", len(b))
	}
	return parseSplitHeader(b[:dataHeaderLen], len(b)-dataHeaderLen)
}

// parseSplitHeader is parseHeader for a datagram received in two parts,
// as the batched receive reads it: b, its first dataHeaderLen bytes —
// all of it, when it is shorter — and a fragment payload of frag bytes,
// wherever that was put (or still in the socket: a peeked datagram). A
// short first part cannot have anything behind it.
func parseSplitHeader(b []byte, frag int) (header, error) {
	if len(b) != dataHeaderLen {
		return header{}, fmt.Errorf("transport: data datagram with a %d-byte header part and %d bytes behind it",
			len(b), frag)
	}
	h := header{
		seq:      binary.LittleEndian.Uint64(b[1:9]),
		msgID:    binary.LittleEndian.Uint64(b[9:17]),
		kind:     Kind(b[17]),
		ctx:      int64(binary.LittleEndian.Uint64(b[18:26])),
		src:      int(int32(binary.LittleEndian.Uint32(b[26:30]))),
		srcWorld: int(int32(binary.LittleEndian.Uint32(b[30:34]))),
		dst:      int(int32(binary.LittleEndian.Uint32(b[34:38]))),
		tag:      int(int64(binary.LittleEndian.Uint64(b[38:46]))),
		totalLen: int(binary.LittleEndian.Uint32(b[46:50])),
		offset:   int(binary.LittleEndian.Uint32(b[50:54])),
	}
	if h.seq == 0 {
		return header{}, fmt.Errorf("transport: data datagram with sequence number 0 (flows start at 1)")
	}
	if h.totalLen > maxWireMessage {
		return header{}, fmt.Errorf("transport: claimed message length %d exceeds cap %d",
			h.totalLen, maxWireMessage)
	}
	if h.totalLen < 0 || h.offset < 0 || frag < 0 || h.offset+frag > h.totalLen {
		return header{}, fmt.Errorf("transport: fragment [%d:%d) exceeds message length %d",
			h.offset, h.offset+frag, h.totalLen)
	}
	return h, nil
}

// seqRange is an inclusive run of sequence numbers.
type seqRange struct{ first, last uint64 }

// ack is the decoded ACK datagram: every sequence number up to cum has
// been delivered, and the receiver additionally holds the n ranges of
// out-of-order datagrams in ranges[:n] — ascending, disjoint, not
// touching, all above cum+1 (cum+1 itself is by definition missing).
type ack struct {
	cum    uint64
	n      int
	ranges [maxAckRanges]seqRange
}

// putAck encodes a into b, which must hold maxAckLen bytes, and returns
// the encoded length.
func putAck(b []byte, a *ack) int {
	b[0] = ptAck
	binary.LittleEndian.PutUint64(b[1:9], a.cum)
	b[9] = byte(a.n)
	off := ackBaseLen
	for _, r := range a.ranges[:a.n] {
		binary.LittleEndian.PutUint64(b[off:], r.first)
		binary.LittleEndian.PutUint64(b[off+8:], r.last)
		off += ackRangeLen
	}
	return off
}

// parseSplitAck is parseAck for a datagram received in two parts (see
// parseSplitHeader): an ACK with three or four ranges is longer than a
// data header, and its tail arrives wherever a fragment payload would
// have gone. The parts are joined before anything is decoded.
func parseSplitAck(b, spill []byte) (ack, error) {
	if len(spill) == 0 {
		return parseAck(b)
	}
	if len(b) != dataHeaderLen || len(spill) > maxAckLen-dataHeaderLen {
		return ack{}, fmt.Errorf("transport: ack with a %d-byte header part and %d bytes behind it", len(b), len(spill))
	}
	var joined [maxAckLen]byte
	n := copy(joined[:], b)
	n += copy(joined[n:], spill)
	return parseAck(joined[:n])
}

// parseAck decodes an ACK datagram. ACKs arrive straight off the socket
// and their ranges index the sender's retransmit queue, so everything
// putAck cannot produce is rejected: a truncated frame, more than
// maxAckRanges ranges, a range at or below cum+1, an inverted range,
// ranges out of order or touching, and trailing bytes.
func parseAck(b []byte) (ack, error) {
	if len(b) < ackBaseLen {
		return ack{}, fmt.Errorf("transport: short ack datagram (%d bytes)", len(b))
	}
	a := ack{cum: binary.LittleEndian.Uint64(b[1:9]), n: int(b[9])}
	if a.n > maxAckRanges {
		return ack{}, fmt.Errorf("transport: ack carries %d ranges, cap is %d", a.n, maxAckRanges)
	}
	if want := ackBaseLen + a.n*ackRangeLen; len(b) != want {
		return ack{}, fmt.Errorf("transport: ack with %d ranges is %d bytes, want %d", a.n, len(b), want)
	}
	// Each range must start at least two above the end of what precedes
	// it (cum, then the previous range): one above would be cum+1 itself,
	// or touch the previous range. Subtracting keeps the test exact at
	// the top of the sequence space.
	prev := a.cum
	for i := 0; i < a.n; i++ {
		off := ackBaseLen + i*ackRangeLen
		r := seqRange{
			first: binary.LittleEndian.Uint64(b[off:]),
			last:  binary.LittleEndian.Uint64(b[off+8:]),
		}
		if r.first <= prev || r.first-prev < 2 || r.last < r.first {
			return ack{}, fmt.Errorf("transport: ack range %d [%d,%d] is inverted or not clear of %d",
				i, r.first, r.last, prev)
		}
		a.ranges[i] = r
		prev = r.last
	}
	return a, nil
}
