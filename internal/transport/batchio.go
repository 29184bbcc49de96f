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

// batchPkt is one datagram of a received batch. The byte slice aliases
// the batchIO's reusable receive buffers — valid only until the next
// readBatch call, which is fine because dispatch is synchronous.
type batchPkt struct {
	b    []byte
	addr net.Addr
}

// datagram is one outbound data datagram as the scoreboard keeps it:
// the encoded header and a view of the fragment's payload (empty for a
// header-only datagram), written as one gather.
type datagram struct {
	hdr, payload []byte
}
