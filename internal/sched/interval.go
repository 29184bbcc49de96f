package sched

import (
	"fmt"
	"slices"
	"strings"
)

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi int
}

// Len returns the interval length (zero for empty or inverted intervals).
func (iv Interval) Len() int {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// IntervalSet is a normalized set of disjoint, sorted, non-adjacent
// half-open intervals. It tracks which byte ranges of the collective
// buffer a rank holds valid data for: Elide decides with it which
// transfers bring a rank nothing new, and Verify reports with it the
// bytes each rank ends holding.
//
// The zero value is an empty set ready for use.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet returns a set containing the given intervals.
func NewIntervalSet(ivs ...Interval) *IntervalSet {
	s := &IntervalSet{}
	for _, iv := range ivs {
		s.Add(iv.Lo, iv.Hi)
	}
	return s
}

// Add inserts [lo, hi) into the set, merging with overlapping or adjacent
// intervals. Empty ranges are ignored. It works in place: a set that has
// held as many intervals before allocates nothing.
func (s *IntervalSet) Add(lo, hi int) {
	if hi <= lo {
		return
	}
	// Find insertion window: all intervals overlapping or adjacent to [lo,hi).
	i := s.above(lo - 1)
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo <= hi {
		j++
	}
	if i == j {
		s.ivs = slices.Insert(s.ivs, i, Interval{lo, hi})
		return
	}
	s.ivs[i] = Interval{min(lo, s.ivs[i].Lo), max(hi, s.ivs[j-1].Hi)}
	if j > i+1 {
		s.ivs = append(s.ivs[:i+1], s.ivs[j:]...)
	}
}

// Reset empties the set, keeping its storage for reuse.
func (s *IntervalSet) Reset() { s.ivs = s.ivs[:0] }

// Contains reports whether the whole range [lo, hi) is in the set.
// Empty ranges are trivially contained.
func (s *IntervalSet) Contains(lo, hi int) bool {
	if hi <= lo {
		return true
	}
	i := s.above(lo)
	return i < len(s.ivs) && s.ivs[i].Lo <= lo && hi <= s.ivs[i].Hi
}

// above returns the index of the first interval that ends after x
// (len(ivs) when none does).
func (s *IntervalSet) above(x int) int {
	lo, hi := 0, len(s.ivs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.ivs[m].Hi > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Total returns the total number of bytes covered.
func (s *IntervalSet) Total() int {
	t := 0
	for _, iv := range s.ivs {
		t += iv.Len()
	}
	return t
}

// String renders the set like "{[0,4) [8,12)}".
func (s *IntervalSet) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi)
	}
	return "{" + strings.Join(parts, " ") + "}"
}
