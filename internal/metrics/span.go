package metrics

import (
	"sort"
	"time"
)

// Span is one completed collective operation on one rank: what ran,
// with which algorithm and segment size, over how many bytes, and when.
// Op and Algorithm are interned constants on the write side (the
// collective package's op names and registry names), so recording a
// Span copies two string headers, never their bytes.
type Span struct {
	Rank      int
	Op        string
	Algorithm string // registry name; "" for fixed-algorithm collectives
	Seg       int
	Bytes     int
	Start     time.Time
	Dur       time.Duration
}

// SpanRing is a fixed-capacity, drop-oldest buffer of operation spans
// for one rank; a communicator hands it out (internal/mpi's
// Comm.SpanRing). Record is called only from contexts serialized per
// rank (a rank issues its collectives one at a time), so the ring needs
// no atomics; reading happens between runs via Spans/Recorded/Dropped.
type SpanRing struct {
	rank int
	buf  []Span
	n    int64 // total spans ever recorded
}

// Record appends a span, overwriting the oldest entry once the ring is
// full. It is allocation-free; a nil or zero-capacity ring ignores the
// call, so emission sites need no enabled check beyond the nil ring.
func (r *SpanRing) Record(op, algo string, seg, bytes int, start time.Time, dur time.Duration) {
	if r == nil || len(r.buf) == 0 {
		return
	}
	r.buf[r.n%int64(len(r.buf))] = Span{
		Rank: r.rank, Op: op, Algorithm: algo,
		Seg: seg, Bytes: bytes, Start: start, Dur: dur,
	}
	r.n++
}

// Recorded returns the total number of spans ever recorded (including
// those since overwritten).
func (r *SpanRing) Recorded() int64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many recorded spans have been overwritten.
func (r *SpanRing) Dropped() int64 {
	if r == nil || len(r.buf) == 0 {
		return 0
	}
	if d := r.n - int64(len(r.buf)); d > 0 {
		return d
	}
	return 0
}

// Spans copies out the retained spans, oldest first.
func (r *SpanRing) Spans() []Span {
	if r == nil || r.n == 0 {
		return nil
	}
	size := int64(len(r.buf))
	count := r.n
	if count > size {
		count = size
	}
	out := make([]Span, 0, count)
	start := r.n - count
	for i := start; i < r.n; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}

// sortSpans orders spans by start time (rank breaks ties) so a merged
// timeline reads chronologically.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].Rank < spans[j].Rank
	})
}
