package core

// Traffic summarizes the communication volume of one algorithm phase.
type Traffic struct {
	// Messages is the number of message transfers, counting zero-byte
	// envelopes (the paper's "data transmissions" count).
	Messages int
	// NonEmptyMessages excludes zero-byte transfers.
	NonEmptyMessages int
	// Bytes is the total payload volume.
	Bytes int
}

// TunedSavedMessages returns the closed-form number of ring messages the
// tuned allgather removes relative to the native enclosed ring: every
// receive-only rank r skips its final step_r - 1 sends, so the saving is
//
//	sum over recv-only ranks of (step_r - 1).
//
// For p = 8 this is 12 (56 -> 44) and for p = 10 it is 15 (90 -> 75),
// matching Section IV of the paper.
func TunedSavedMessages(p int) int {
	if p <= 1 {
		return 0
	}
	saved := 0
	for rel := 0; rel < p; rel++ {
		sf := ComputeStepFlag(rel, p)
		if sf.RecvOnly {
			saved += sf.Step - 1
		}
	}
	return saved
}

// RingTrafficNative returns the traffic of the enclosed ring allgather:
// P messages in each of the P-1 steps. Bytes are (P-1)*n when chunks
// divide evenly; with uneven division the exact per-chunk counts are
// summed (each step circulates every chunk exactly once).
func RingTrafficNative(p, n int) Traffic {
	if p <= 1 {
		return Traffic{}
	}
	l := NewLayout(n, p)
	nonEmptyPerStep := 0
	bytesPerStep := 0
	for rel := 0; rel < p; rel++ {
		c := l.Count(rel)
		bytesPerStep += c
		if c > 0 {
			nonEmptyPerStep++
		}
	}
	return Traffic{
		Messages:         p * (p - 1),
		NonEmptyMessages: nonEmptyPerStep * (p - 1),
		Bytes:            bytesPerStep * (p - 1),
	}
}

// RingTrafficTuned returns the traffic of the paper's non-enclosed ring
// allgather: every rank receives each non-empty chunk outside its scatter
// subtree once, so its bytes are what the ranks lack after the scatter
// and, when no chunk is empty, its messages are Listing 1's.
func RingTrafficTuned(p, n int) Traffic {
	l := NewLayout(n, p)
	var t Traffic
	for rel := 0; rel < p; rel++ {
		lo, hi := OwnedChunks(rel, p)
		for c := 0; c < p; c++ {
			if k := l.Count(c); k > 0 && (c < lo || c >= hi) {
				t.Messages++
				t.Bytes += k
			}
		}
	}
	t.NonEmptyMessages = t.Messages
	return t
}

// ScatterTraffic returns the traffic of the binomial scatter phase:
// every rank with a non-empty subtree range receives exactly one message.
func ScatterTraffic(p, n int) Traffic {
	l := NewLayout(n, p)
	var t Traffic
	for rel := 1; rel < p; rel++ {
		length := coverEnd(l, rel, p) - l.Disp(rel)
		if length > 0 {
			t.Messages++
			t.NonEmptyMessages++
			t.Bytes += length
		}
	}
	return t
}
