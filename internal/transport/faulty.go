package transport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"
)

// FaultConfig sets independent per-datagram fault probabilities for a
// Faulty wrapper. Probabilities are evaluated in Drop, Dup, Reorder
// order from one roll, so their sum must not exceed 1. Delay and Jitter
// compose with the probabilistic faults: every datagram that survives
// them is additionally held for Delay plus a uniform [0, Jitter) draw
// before hitting the wire — a one-way latency model that gives
// adaptive-RTO tests realistic round trips instead of loopback
// microseconds.
type FaultConfig struct {
	Drop    float64       // datagram vanishes (write reports success)
	Dup     float64       // datagram is written twice
	Reorder float64       // datagram is held and released after a later write
	Delay   time.Duration // fixed one-way latency added to every datagram
	Jitter  time.Duration // uniform extra latency in [0, Jitter) per datagram
	Seed    int64         // rng seed; 0 means a fixed default (deterministic)
}

// Faulty wraps a PacketConn and injects datagram loss, duplication and
// reordering on the write side. Reads are not faulted — a UDP transport
// reads a wrapped raw socket around the wrapper, through SyscallConn —
// so wrapping one endpoint of a pair perturbs exactly one direction.
// The retransmit contract makes all three faults invisible to the
// Transport's callers — tests wrap a UDP transport's socket in a Faulty
// to prove byte-identity under loss.
type Faulty struct {
	net.PacketConn
	cfg FaultConfig

	mu   sync.Mutex
	rng  *rand.Rand
	held []heldPkt
}

type heldPkt struct {
	b    []byte
	addr net.Addr
}

// maxHeld bounds how many reordered packets wait for a release trigger.
const maxHeld = 4

// NewFaulty wraps conn with the configured fault probabilities.
func NewFaulty(conn net.PacketConn, cfg FaultConfig) *Faulty {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Faulty{PacketConn: conn, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetReadBuffer forwards to the wrapped socket, so a transport sizes the
// kernel buffers of a fault-injected socket like those of a raw one.
func (f *Faulty) SetReadBuffer(bytes int) error {
	if sb, ok := f.PacketConn.(sockBuffers); ok {
		return sb.SetReadBuffer(bytes)
	}
	return errors.ErrUnsupported
}

// SetWriteBuffer forwards to the wrapped socket; see SetReadBuffer.
func (f *Faulty) SetWriteBuffer(bytes int) error {
	if sb, ok := f.PacketConn.(sockBuffers); ok {
		return sb.SetWriteBuffer(bytes)
	}
	return errors.ErrUnsupported
}

// SyscallConn forwards to the wrapped socket, so a transport over a
// Faulty reads in batches like one over a raw socket. Writes never go
// around WriteTo: the transport batches them only on a raw socket.
func (f *Faulty) SyscallConn() (syscall.RawConn, error) {
	if sc, ok := f.PacketConn.(syscall.Conn); ok {
		return sc.SyscallConn()
	}
	return nil, errors.ErrUnsupported
}

// WriteTo implements net.PacketConn with fault injection. Dropped
// datagrams report success — exactly what the network does. Surviving
// datagrams leave through emit, which applies the configured one-way
// latency.
func (f *Faulty) WriteTo(p []byte, addr net.Addr) (int, error) {
	f.mu.Lock()
	roll := f.rng.Float64()
	var lat time.Duration
	if f.cfg.Delay > 0 || f.cfg.Jitter > 0 {
		lat = f.cfg.Delay
		if f.cfg.Jitter > 0 {
			lat += time.Duration(f.rng.Float64() * float64(f.cfg.Jitter))
		}
	}
	switch {
	case roll < f.cfg.Drop:
		f.mu.Unlock()
		return len(p), nil
	case roll < f.cfg.Drop+f.cfg.Dup:
		f.mu.Unlock()
		f.emit(p, addr, lat)
		f.emit(p, addr, lat)
		return len(p), nil
	case roll < f.cfg.Drop+f.cfg.Dup+f.cfg.Reorder:
		f.held = append(f.held, heldPkt{append([]byte(nil), p...), addr})
		var rel []heldPkt
		if len(f.held) > maxHeld {
			rel = append(rel, f.held[0])
			f.held = f.held[1:]
		}
		f.mu.Unlock()
		for _, h := range rel {
			f.emit(h.b, h.addr, lat)
		}
		return len(p), nil
	default:
		rel := f.held
		f.held = nil
		f.mu.Unlock()
		f.emit(p, addr, lat)
		for _, h := range rel {
			f.emit(h.b, h.addr, lat)
		}
		return len(p), nil
	}
}

// emit writes b immediately, or from a timer after the drawn latency.
// Write errors are ignored: the wrapped transport treats a failed
// datagram exactly like a lost one and retransmits. Delayed datagrams
// still pending when the socket closes are simply lost — also exactly
// what the network does.
func (f *Faulty) emit(b []byte, addr net.Addr, lat time.Duration) {
	if lat <= 0 {
		f.PacketConn.WriteTo(b, addr)
		return
	}
	cp := append([]byte(nil), b...)
	time.AfterFunc(lat, func() { f.PacketConn.WriteTo(cp, addr) })
}

// Close flushes held packets, then closes the underlying socket.
func (f *Faulty) Close() error {
	f.mu.Lock()
	for _, h := range f.held {
		f.PacketConn.WriteTo(h.b, h.addr)
	}
	f.held = nil
	f.mu.Unlock()
	return f.PacketConn.Close()
}
