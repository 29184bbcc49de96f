package transport

import (
	"errors"
	"net"
)

// batchSize is the datagram count of one sendmmsg/recvmmsg syscall —
// large enough to swallow a full initial congestion window per call,
// small enough that the per-call scratch stays a few KiB.
const batchSize = 32

// errBatchUnsupported is returned by readBatch when the platform's
// batched receive path turns out to be unusable at runtime; the receive
// loop falls back to single ReadFrom calls.
var errBatchUnsupported = errors.New("transport: batched socket I/O unsupported")

// batchPkt is one datagram of a received batch, in the two parts every
// receive slot reads it in: hdr, its first dataHeaderLen bytes (all of a
// shorter datagram), and payload, the rest. hdr aliases the batchIO's
// reusable slot buffers, and so does payload unless the slot was aimed
// at a window (see readPlan) and the payload fit inside it: then payload
// is that window's head. Both are valid only until the next readBatch
// call, which is fine because dispatch is synchronous.
type batchPkt struct {
	hdr, payload []byte
	addr         net.Addr
}

// readPlan tells a batched read how far to read and where to: it
// returns how many datagrams the next recvmmsg may take (at least one)
// and leaves in win[i] the memory the i-th of them should put its
// payload in — nil for the slot's own buffer. It is called right before
// each recvmmsg attempt, so what it answers is current however long the
// read waited for the socket. A plan that cannot tell without seeing
// what comes next may look: head peeks at the datagram at the front of
// the socket's queue, which stays there.
type readPlan func(win [][]byte, head peekFunc) int

// peekFunc returns the first dataHeaderLen bytes of the next datagram to
// be read (all of a shorter one), how many bytes follow them and where
// the datagram came from; ok is false when there is nothing to look at.
type peekFunc func() (hdr []byte, rest int, addr net.Addr, ok bool)

// datagram is one outbound data datagram as the scoreboard keeps it:
// the encoded header and a view of the fragment's payload (empty for a
// header-only datagram), written as one gather.
type datagram struct {
	hdr, payload []byte
}
