package core

import "fmt"

// Layout describes how an n-byte broadcast buffer is divided into P
// chunks for the scatter-allgather algorithms.
//
// MPICH computes scatter_size = ceil(n/P); chunk i (indexed by rank
// relative to the root) occupies bytes [i*scatter_size, (i+1)*scatter_size)
// clamped to n. With uneven division the last chunks are short, and when
// n < (P-1)*scatter_size some tail chunks are empty; the enclosed ring
// still sends them as zero-byte transfers (the elided one does not), which
// is why the traffic model distinguishes messages from non-empty messages.
type Layout struct {
	// N is the total buffer size in bytes.
	N int
	// P is the number of chunks (= communicator size).
	P int
	// ScatterSize is ceil(N/P), the nominal chunk size.
	ScatterSize int
}

// NewLayout returns the chunk layout for an n-byte buffer over p ranks.
// It panics if p <= 0 or n < 0; callers validate user input.
func NewLayout(n, p int) Layout {
	if p <= 0 {
		panic(fmt.Sprintf("core: layout requires p > 0, got %d", p))
	}
	if n < 0 {
		panic(fmt.Sprintf("core: layout requires n >= 0, got %d", n))
	}
	return Layout{N: n, P: p, ScatterSize: (n + p - 1) / p}
}

// Count returns the size in bytes of chunk rel (0 <= rel < P). Chunks past
// the end of the buffer are empty.
func (l Layout) Count(rel int) int {
	c := l.N - rel*l.ScatterSize
	if c > l.ScatterSize {
		c = l.ScatterSize
	}
	if c < 0 {
		c = 0
	}
	return c
}

// Disp returns the byte offset of chunk rel, clamped to N so that
// Disp(rel) + Count(rel) <= N always holds (empty chunks sit at offset N).
func (l Layout) Disp(rel int) int {
	d := rel * l.ScatterSize
	if d > l.N {
		d = l.N
	}
	return d
}

// RelRank returns rank's position relative to root in a P-rank
// communicator: (rank - root + P) mod P. The broadcast algorithms operate
// on relative ranks so that any root reduces to the root-0 case.
func RelRank(rank, root, p int) int {
	return ((rank-root)%p + p) % p
}

// AbsRank is the inverse of RelRank: the absolute rank of relative rank
// rel with respect to root.
func AbsRank(rel, root, p int) int {
	return (rel + root) % p
}

// IsPow2 reports whether p is a positive power of two.
func IsPow2(p int) bool {
	return p > 0 && p&(p-1) == 0
}

// CeilPow2 returns the smallest power of two >= p (p >= 1).
func CeilPow2(p int) int {
	m := 1
	for m < p {
		m <<= 1
	}
	return m
}

// FloorLog2 returns floor(log2(v)) for v >= 1.
func FloorLog2(v int) int {
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}
