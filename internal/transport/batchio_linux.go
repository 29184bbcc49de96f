//go:build linux && (amd64 || arm64)

// Batched datagram I/O over sendmmsg(2)/recvmmsg(2), driven through
// syscall.RawConn so the sockets stay registered with the runtime
// netpoller: syscalls are non-blocking (MSG_DONTWAIT) and EAGAIN parks
// the goroutine on poller readiness instead of spinning. The frozen
// stdlib syscall package has no mmsghdr wrappers (and on some arches
// not even the sendmmsg number), so the structures and numbers live
// here; anything unexpected degrades to the portable WriteTo/ReadFrom
// path rather than failing.

package transport

import (
	"net"
	"sync"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// datagram length, padded to 8-byte alignment on 64-bit.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// rawSockaddr is scratch space big enough for any UDP sockaddr.
type rawSockaddr [syscall.SizeofSockaddrInet6]byte

// batchIO provides recvmmsg access to one UDP socket, and sendmmsg
// access when the socket is a raw one. Write scratch is the caller's
// batchWriter (flows flush concurrently, each under its own lock).
// Receive scratch is rx, borrowed from scratchPool for the transport's
// lifetime: readBatch has a single caller, the transport's receive
// loop, so one set of slots serves it, and once that loop has stopped
// the next transport of the process may as well read into the same
// slots.
//
// Every receive slot has one shape: a gather of the datagram's first
// dataHeaderLen bytes into the head of the slot's buffer, then its
// payload into the slot's target — the rest of that buffer or, when the
// readPlan names one, a window somewhere else — and, behind a window
// shorter than a full payload, the buffer's tail, so that no datagram
// is ever cut short by a window that expected a smaller one.
type batchIO struct {
	rc syscall.RawConn
	// writes is set when the socket is a raw *net.UDPConn: a wrapper's
	// WriteTo (a Faulty's injected faults) must see every datagram.
	writes bool

	// idle runs each time a read finds the socket empty, right before the
	// receive loop parks on the netpoller. The loop sets it before its
	// first read.
	idle func()

	// rx is the receive scratch; nil once release has handed it back.
	rx *recvScratch

	// recv is the recvmmsg call handed to rc.Read, built once: a fresh
	// closure per readBatch would be a heap allocation per batch. It asks
	// plan where to read to, and leaves its result in rgot and rerr.
	recv func(fd uintptr) bool
	plan readPlan
	rgot int
	rerr syscall.Errno

	// head is peek as the plan gets it, built once like recv; fd is the
	// socket while recv runs, and empty is set by a peek that found
	// nothing queued: recv then parks instead of reading.
	head  peekFunc
	fd    uintptr
	empty bool
	phdr  [dataHeaderLen]byte
	pname rawSockaddr
}

// recvScratch is what a batchIO reads into: the recvmmsg slots, each
// wired once to its own header, name and first iovec, and the address
// cache. Its slot buffers are ~1.3 MB (32 of Go's 40 KiB size class),
// the bulk of what a transport costs to set up, so it is pooled across
// transports (scratchPool). It holds nothing of the write side: a Send
// after Close must not find another transport's socket through it.
// No view into it outlives a batch's dispatch — held fragments and
// reassembly copy their bytes out, and a claimed window is the Sink's
// own memory — so the next owner may overwrite all of it.
type recvScratch struct {
	pkts  [batchSize]batchPkt         // what readBatch returns a prefix of
	bufs  [batchSize][]byte           // maxDatagram each: header, then payload
	wins  [batchSize][]byte           // the plan's windows; nil where the target is the slot's buffer
	iovs  [batchSize][3]syscall.Iovec // header, target, spill
	hdrs  [batchSize]mmsghdr
	names [batchSize]rawSockaddr

	// addrs caches decoded source addresses so steady-state receives
	// from a known peer allocate nothing. It starts empty for each
	// transport: the addresses it caches are that transport's peers.
	addrs []cachedAddr
}

// scratchPool holds the receive scratch of transports that have closed.
var scratchPool = sync.Pool{New: func() any {
	rx := new(recvScratch)
	for i := range rx.bufs {
		rx.bufs[i] = make([]byte, maxDatagram)
		rx.iovs[i][0].Base = &rx.bufs[i][0]
		rx.iovs[i][0].SetLen(dataHeaderLen)
		rx.hdrs[i].hdr.Iov = &rx.iovs[i][0]
		rx.hdrs[i].hdr.Name = &rx.names[i][0]
	}
	return rx
}}

type cachedAddr struct {
	raw  rawSockaddr
	n    uint32
	addr *net.UDPAddr
}

// newBatchIO returns a batchIO for conn, or nil when conn offers no
// socket to read through (no SyscallConn, or one that fails) — callers
// then use the portable single-datagram path. A wrapper that forwards
// SyscallConn (Faulty) is read around, so it must leave reads alone; its
// writes still go through its WriteTo.
func newBatchIO(conn net.PacketConn) *batchIO {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	_, raw := conn.(*net.UDPConn)
	b := &batchIO{rc: rc, writes: raw, rx: scratchPool.Get().(*recvScratch)}
	b.head = b.peek
	b.recv = func(fd uintptr) bool {
		b.fd, b.empty = fd, false
		if n := b.aim(); !b.empty {
			r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&b.rx.hdrs[0])), uintptr(n), syscall.MSG_DONTWAIT, 0, 0)
			if e != syscall.EAGAIN {
				b.rerr, b.rgot = e, int(r1)
				return true
			}
		}
		b.idle()
		return false // park on the netpoller until readable
	}
	return b
}

// release hands the receive scratch back to scratchPool, emptied of
// what it held of this transport: the last batch's views, the plan's
// windows and the cached peer addresses. Its caller has stopped the
// receive loop, the scratch's one reader; the write side stays here, so
// a late Send still writes through this transport's own socket. A nil
// batchIO releases nothing.
func (b *batchIO) release() {
	if b == nil || b.rx == nil {
		return
	}
	rx := b.rx
	b.rx = nil
	clear(rx.pkts[:])
	clear(rx.wins[:])
	clear(rx.addrs)
	rx.addrs = rx.addrs[:0]
	scratchPool.Put(rx)
}

// peek is the batchIO's peekFunc: a recvfrom that leaves the datagram
// queued (MSG_PEEK) and reports its real length however little of it was
// asked for (MSG_TRUNC).
func (b *batchIO) peek() (hdr []byte, rest int, addr net.Addr, ok bool) {
	salen := uint32(len(b.pname))
	r1, _, e := syscall.Syscall6(syscall.SYS_RECVFROM, b.fd,
		uintptr(unsafe.Pointer(&b.phdr[0])), uintptr(len(b.phdr)),
		syscall.MSG_PEEK|syscall.MSG_TRUNC|syscall.MSG_DONTWAIT,
		uintptr(unsafe.Pointer(&b.pname[0])), uintptr(unsafe.Pointer(&salen)))
	if e != 0 {
		b.empty = e == syscall.EAGAIN
		return nil, 0, nil, false
	}
	n := min(int(r1), len(b.phdr))
	return b.phdr[:n], int(r1) - n, b.decodeSockaddr(&b.pname, salen), true
}

// aim asks the plan how many slots the next recvmmsg may fill and points
// each at its target, the plan's window or the slot's own buffer.
func (b *batchIO) aim() int {
	rx := b.rx
	clear(rx.wins[:])
	n := max(1, min(b.plan(rx.wins[:], b.head), batchSize))
	for i := 0; i < n; i++ {
		hdr, iov := &rx.hdrs[i].hdr, &rx.iovs[i]
		hdr.Namelen = uint32(len(rx.names[i]))
		hdr.Iovlen = 2
		target := rx.bufs[i][dataHeaderLen:]
		if w := rx.wins[i]; len(w) > 0 {
			w = w[:min(len(w), maxPayload)]
			if spill := target[len(w):]; len(spill) > 0 {
				iov[2].Base = &spill[0]
				iov[2].SetLen(len(spill))
				hdr.Iovlen = 3
			}
			rx.wins[i], target = w, w
		}
		iov[1].Base = &target[0]
		iov[1].SetLen(len(target))
	}
	return n
}

// encodeSockaddr fills rsa with addr's kernel representation and
// returns its length; ok is false for address shapes the batch path
// does not handle (callers fall back).
func encodeSockaddr(addr net.Addr, rsa *rawSockaddr) (uint32, bool) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok || ua.Zone != "" {
		return 0, false
	}
	port := uint16(ua.Port)
	if ip4 := ua.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: port<<8 | port>>8}
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, true
	}
	if ip6 := ua.IP.To16(); ip6 != nil {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: port<<8 | port>>8}
		copy(sa.Addr[:], ip6)
		return syscall.SizeofSockaddrInet6, true
	}
	return 0, false
}

// decodeSockaddr resolves a kernel-filled sockaddr through the address
// cache, adding an entry on first sight of a peer.
func (b *batchIO) decodeSockaddr(raw *rawSockaddr, n uint32) net.Addr {
	rx := b.rx
	for i := range rx.addrs {
		c := &rx.addrs[i]
		if c.n == n && c.raw == *raw {
			return c.addr
		}
	}
	fam := uint16(raw[0]) | uint16(raw[1])<<8
	var ua *net.UDPAddr
	switch fam {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(raw))
		ua = &net.UDPAddr{
			IP:   append(net.IP(nil), sa.Addr[:]...),
			Port: int(sa.Port>>8 | sa.Port<<8),
		}
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(raw))
		ua = &net.UDPAddr{
			IP:   append(net.IP(nil), sa.Addr[:]...),
			Port: int(sa.Port>>8 | sa.Port<<8),
		}
	default:
		return nil
	}
	// Bound the cache; a rotating peer set beyond this just allocates.
	if len(rx.addrs) < 256 {
		rx.addrs = append(rx.addrs, cachedAddr{raw: *raw, n: n, addr: ua})
	}
	return ua
}

// batchWriter is one flow's sendmmsg scratch, kept across calls so a
// batched write allocates nothing: the headers, and the syscall closure
// handed to rc.Write (a fresh one per call would escape to the heap and
// take the headers with it). Its user serializes calls.
type batchWriter struct {
	iovs  [batchSize][2]syscall.Iovec // header, payload
	hdrs  [batchSize]mmsghdr
	rsa   rawSockaddr
	n     int
	wrote int
	serr  syscall.Errno
	send  func(fd uintptr) bool
}

// writeBatch sends dgrams to addr in sendmmsg chunks, each datagram a
// gather of its header and its payload view, reporting how many
// datagrams the kernel accepted and how many syscalls that took. ok is
// false when the batch path cannot be used at all — a wrapped socket, or
// an address it cannot encode (callers fall back to WriteTo); a short or
// failed send after the first accepted datagram still reports ok, and
// the unaccepted tail is left to the retransmit clock.
func (b *batchIO) writeBatch(w *batchWriter, dgrams []datagram, addr net.Addr) (sent, calls int, ok bool) {
	if !b.writes {
		return 0, 0, false
	}
	salen, ok := encodeSockaddr(addr, &w.rsa)
	if !ok {
		return 0, 0, false
	}
	if w.send == nil {
		w.send = func(fd uintptr) bool {
			r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&w.hdrs[0])), uintptr(w.n), syscall.MSG_DONTWAIT, 0, 0)
			if e == syscall.EAGAIN {
				return false // park on the netpoller until writable
			}
			w.serr, w.wrote = e, int(r1)
			return true
		}
	}
	for sent < len(dgrams) {
		w.n = min(len(dgrams)-sent, batchSize)
		for i := 0; i < w.n; i++ {
			d, iov := dgrams[sent+i], &w.iovs[i]
			iov[0].Base = &d.hdr[0]
			iov[0].SetLen(len(d.hdr))
			parts := uint64(1)
			if len(d.payload) > 0 {
				iov[1].Base = &d.payload[0]
				iov[1].SetLen(len(d.payload))
				parts = 2
			}
			w.hdrs[i].hdr = syscall.Msghdr{Name: &w.rsa[0], Namelen: salen, Iov: &iov[0], Iovlen: parts}
		}
		w.wrote, w.serr = 0, 0
		if err := b.rc.Write(w.send); err != nil || w.serr != 0 {
			return sent, calls, sent > 0
		}
		calls++
		sent += w.wrote
		if w.wrote < w.n {
			return sent, calls, true
		}
	}
	return sent, calls, true
}

// readBatch returns the datagrams of one recvmmsg call aimed by plan,
// blocking on the netpoller until at least one is readable. A payload
// that ran past its window is put together again in the slot's buffer.
func (b *batchIO) readBatch(plan readPlan) ([]batchPkt, error) {
	b.plan, b.rgot, b.rerr = plan, 0, 0
	if err := b.rc.Read(b.recv); err != nil {
		return nil, err
	}
	if serr := b.rerr; serr != 0 {
		if serr == syscall.ENOSYS || serr == syscall.EINVAL {
			return nil, errBatchUnsupported
		}
		return nil, serr
	}
	rx := b.rx
	pkts := rx.pkts[:b.rgot]
	for i := range pkts {
		buf, n := rx.bufs[i], int(rx.hdrs[i].n)
		hdrLen := min(n, dataHeaderLen)
		payload := buf[dataHeaderLen : dataHeaderLen+n-hdrLen]
		switch w := rx.wins[i]; {
		case len(w) == 0:
		case len(payload) <= len(w):
			payload = w[:len(payload)]
		default:
			copy(payload, w)
		}
		pkts[i] = batchPkt{
			hdr: buf[:hdrLen], payload: payload,
			addr: b.decodeSockaddr(&rx.names[i], rx.hdrs[i].hdr.Namelen),
		}
	}
	return pkts, nil
}
