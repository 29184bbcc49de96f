package bufpool

import (
	"sync"
	"testing"
)

func TestGetLengthsAndClasses(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1 << 12, (1 << 12) + 1, 1 << 22} {
		b := Get(n)
		if len(b.B) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Fatalf("Get(%d): cap = %d < n", n, cap(b.B))
		}
		if b.pool == nil {
			t.Fatalf("Get(%d): class-sized buffer has no pool", n)
		}
		b.Release()
	}
}

func TestOversizeFallsBack(t *testing.T) {
	n := (1 << 22) + 1
	b := Get(n)
	if len(b.B) != n {
		t.Fatalf("oversize len = %d, want %d", len(b.B), n)
	}
	if b.pool != nil {
		t.Fatal("oversize buffer must not carry a pool")
	}
	b.Release() // must be a no-op, not a panic
}

func TestZeroLength(t *testing.T) {
	b := Get(0)
	if len(b.B) != 0 {
		t.Fatalf("Get(0): len = %d", len(b.B))
	}
	b.Release()
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if rec := recover(); rec == nil {
			t.Error("Get with negative length must panic")
		}
	}()
	Get(-1)
}

func TestReuseRoundTrip(t *testing.T) {
	b := Get(100)
	for i := range b.B {
		b.B[i] = 0xAB
	}
	ptr := &b.B[0]
	b.Release()
	// Not guaranteed by sync.Pool, but on a single goroutine with no GC
	// in between the same object comes back; verify the length is reset
	// even when the previous user asked for a different size.
	c := Get(70)
	if len(c.B) != 70 {
		t.Fatalf("len after reuse = %d", len(c.B))
	}
	if &c.B[0] == ptr && cap(c.B) != 128 {
		t.Fatalf("reused buffer has cap %d, want class size 128", cap(c.B))
	}
	c.Release()
}

func TestNilRelease(t *testing.T) {
	var b *Buf
	b.Release() // nil receivers are tolerated
	b.ReleaseAt(3)
}

func TestClassBoundaries(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 22, maxShift - minShift}, {(1 << 22) + 1, -1},
	}
	for _, c := range cases {
		if got := class(c.n); got != c.want {
			t.Errorf("class(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func BenchmarkGetRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(8192)
		buf.Release()
	}
}

// classTotals is one class's row of Stats (zero when it has no activity).
func classTotals(size int) ClassStats {
	classes, _, _ := Stats()
	for _, c := range classes {
		if c.Size == size {
			return c
		}
	}
	return ClassStats{Size: size}
}

// TestStripedCountersExact: whatever stripes concurrent callers name —
// their own, one they all share, a negative hint, one past the stripe
// count — Stats sums to exactly the gets and puts made, and the plain
// Get/Release count beside them.
func TestStripedCountersExact(t *testing.T) {
	const (
		workers = 8
		rounds  = 10000
		size    = 300 // the 512 B class
	)
	for name, hint := range map[string]func(worker, round int) int{
		"distinct":  func(w, _ int) int { return w },
		"colliding": func(int, int) int { return 3 },
		"wild":      func(w, r int) int { return []int{-1 - w, stripes + w, w * stripes, -r}[r%4] },
	} {
		before := classTotals(512)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					b := GetAt(size, hint(w, r))
					b.B[0] = byte(w) // the buffer is this worker's alone
					b.ReleaseAt(hint(w, r+1))
				}
			}(w)
		}
		for r := 0; r < rounds; r++ {
			Get(size).Release()
		}
		wg.Wait()
		after := classTotals(512)
		want := int64((workers + 1) * rounds)
		if g, p := after.Gets-before.Gets, after.Puts-before.Puts; g != want || p != want {
			t.Errorf("%s: gets %+d puts %+d, want %+d each", name, g, p, want)
		}
		if m := after.Misses - before.Misses; m < 0 || m > want {
			t.Errorf("%s: misses %+d of %d gets", name, m, want)
		}
	}
}

// TestMissesCountedOnTheCallersStripe: buffers of a class nothing has
// ever released into are all misses, each counted where its caller said.
// (The buffers are dropped, not released, so the class stays empty for
// a repeated run.)
func TestMissesCountedOnTheCallersStripe(t *testing.T) {
	const (
		size    = 1 << 17 // no other test in this package touches the class
		holders = 8
	)
	cc := &classStats[class(size)]
	before := classTotals(size)
	var stripeBefore [holders]int64
	for h := range stripeBefore {
		stripeBefore[h] = cc.at(10 + h).misses.Load()
	}
	var wg sync.WaitGroup
	for h := 0; h < holders; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			if b := GetAt(size, 10+h); len(b.B) != size {
				t.Errorf("GetAt(%d): len = %d", size, len(b.B))
			}
		}(h)
	}
	wg.Wait()
	for h, was := range stripeBefore {
		if got := cc.at(10+h).misses.Load() - was; got != 1 {
			t.Errorf("stripe %d: misses %+d, want +1", 10+h, got)
		}
	}
	after := classTotals(size)
	if g, p, m := after.Gets-before.Gets, after.Puts-before.Puts, after.Misses-before.Misses; g != holders || p != 0 || m != holders {
		t.Errorf("gets %+d puts %+d misses %+d, want %+d +0 %+d", g, p, m, holders, holders)
	}
}
