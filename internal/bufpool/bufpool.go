// Package bufpool provides size-classed free lists for the scratch
// buffers the engine's message path and the collective algorithms
// allocate per operation. In a long-lived world serving millions of
// collectives, per-message `make`s dominate the allocation profile
// (see BENCH_pooled_vs_goroutine.json); routing them through these
// pools makes the steady state allocation-free regardless of segment
// count or message size.
//
// Buffers travel inside a wrapper (Buf) whose pointer is what the
// underlying sync.Pool stores, so neither Get nor Release allocates on
// the pool hit path — pooling a bare slice would box its header into an
// interface on every Put.
//
// # Counters
//
// Every class counts its gets, puts and misses (Stats). The counts are
// kept in stripes, one padded cache line each, and summed on read: a
// caller that passes a stable small integer of its own (the engine
// passes the calling rank) to GetAt / ReleaseAt writes a line no other
// caller writes, so a buffer taken on one core and released on another
// — every staged eager message above the engine's inline size (smaller
// ones travel inside their envelope and never come here) — makes
// neither core wait for the other's counter. Get and Release are stripe
// 0. Each total is exact: a stripe only ever adds.
//
// # Ownership
//
// Get transfers exclusive ownership of the wrapper and its buffer to
// the caller; ownership may be handed off (the engine's eager path
// fills a buffer on the sender and releases it on the receiver), but
// exactly one goroutine owns a wrapper at any moment and only the
// owner may call Release. After Release the buffer must not be read or
// written — the pool will hand it to an unrelated caller. Buffers are
// returned with their previous contents intact; callers that need
// zeroed memory must clear them.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 1<<minShift to 1<<maxShift
// bytes. Requests above the largest class fall back to plain
// allocation and are dropped on Release (huge one-off transfers must
// not pin megabytes in the pool forever).
const (
	minShift = 6  // 64 B
	maxShift = 22 // 4 MiB
)

// Buf is a pooled byte buffer. B has exactly the requested length; its
// capacity is the size class.
type Buf struct {
	B     []byte
	pool  *sync.Pool     // nil for an oversize buffer
	stats *classCounters // the class's stripes
}

var bytePools [maxShift - minShift + 1]sync.Pool

// stripes is how many counter lines a class has. A power of two at
// least the rank count of the worlds worth measuring (np=64 gives every
// rank its own line); 17 classes x 64 x 128 B is 136 KiB of address
// space, of which only the lines in use are ever touched.
const stripes = 64

// stripe is one cache-line-padded share of a class's counters (128 B:
// adjacent-line prefetch pairs 64-byte lines).
type stripe struct {
	gets, puts, misses atomic.Int64
	_                  [128 - 3*8]byte
}

// classCounters tracks one size class's lifetime activity. A miss is a
// Get the pool could not serve and allocated for; hits are gets - misses.
type classCounters [stripes]stripe

// at returns the stripe a caller's hint names; any int is a valid hint.
func (c *classCounters) at(hint int) *stripe { return &c[uint(hint)%stripes] }

var classStats [maxShift - minShift + 1]classCounters

// Oversize requests bypass the pools entirely: Get falls back to a
// plain allocation and Release drops the buffer.
var oversizeGets, oversizePuts atomic.Int64

// ClassStats is one size class's activity for Stats.
type ClassStats struct {
	Size   int // class capacity in bytes
	Gets   int64
	Puts   int64
	Misses int64
}

// Stats reports per-class gets/puts/misses for every class with any
// activity, plus the oversize fallback totals. The counts are
// process-global and monotonic.
func Stats() (classes []ClassStats, oGets, oPuts int64) {
	for i := range classStats {
		var g, p, m int64
		for j := range classStats[i] {
			st := &classStats[i][j]
			g, p, m = g+st.gets.Load(), p+st.puts.Load(), m+st.misses.Load()
		}
		if g == 0 && p == 0 && m == 0 {
			continue
		}
		classes = append(classes, ClassStats{Size: 1 << (minShift + i), Gets: g, Puts: p, Misses: m})
	}
	return classes, oversizeGets.Load(), oversizePuts.Load()
}

// class returns the pool index for a request of n bytes, or -1 when
// n exceeds the largest class. Negative n panics here with a clear
// message — without the check it would surface as a bare reslice panic
// deep in Get, after handing out a pooled buffer it then leaks.
func class(n int) int {
	if n < 0 {
		panic("bufpool: negative length request")
	}
	if n > 1<<maxShift {
		return -1
	}
	shift := minShift
	if n > 1<<minShift {
		shift = bits.Len(uint(n - 1))
	}
	return shift - minShift
}

// Get returns a buffer of length n (n >= 0). The contents are
// unspecified.
func Get(n int) *Buf { return GetAt(n, 0) }

// GetAt is Get counted on the stripe hint names (see the package
// comment): hint is any integer the caller keeps to itself, such as its
// rank. It changes where the get is counted, nothing else.
func GetAt(n, hint int) *Buf {
	c := class(n)
	if c < 0 {
		oversizeGets.Add(1)
		return &Buf{B: make([]byte, n)}
	}
	st := classStats[c].at(hint)
	st.gets.Add(1)
	b, _ := bytePools[c].Get().(*Buf)
	if b == nil {
		st.misses.Add(1)
		b = &Buf{B: make([]byte, 1<<(minShift+c)), pool: &bytePools[c], stats: &classStats[c]}
	}
	b.B = b.B[:cap(b.B)][:n]
	return b
}

// Release returns b to its pool. b must not be used afterwards.
func (b *Buf) Release() { b.ReleaseAt(0) }

// ReleaseAt is Release counted on the stripe hint names — the
// releaser's own, which need not be the one the buffer was taken on.
func (b *Buf) ReleaseAt(hint int) {
	if b == nil {
		return
	}
	if b.pool == nil {
		oversizePuts.Add(1)
		return
	}
	b.stats.at(hint).puts.Add(1)
	b.pool.Put(b)
}
