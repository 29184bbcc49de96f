//go:build !(linux && (amd64 || arm64))

package transport

import "net"

// batchIO is unavailable on this platform: newBatchIO reports no batch
// capability and the transport uses its WriteTo/ReadFrom path. The
// method set, and the idle hook the receive loop installs, exist so the
// portable code compiles unchanged.
type batchIO struct{ idle func() }

func newBatchIO(net.PacketConn) *batchIO { return nil }

func (*batchIO) release() {}

type batchWriter struct{}

func (*batchIO) writeBatch(*batchWriter, []datagram, net.Addr) (int, int, bool) { return 0, 0, false }

func (*batchIO) readBatch(readPlan) ([]batchPkt, error) { return nil, errBatchUnsupported }
