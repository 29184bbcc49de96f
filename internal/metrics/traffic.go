package metrics

// Counts is a message and byte total.
type Counts struct {
	// Messages counts transfers, including zero-byte envelopes.
	Messages int64
	// Bytes is the payload volume.
	Bytes int64
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Messages += other.Messages
	c.Bytes += other.Bytes
}

// TrafficRow is one rank's traffic ledger: the messages its
// communicators sent — in total, split intra- versus inter-node, and by
// the tag the caller sent them under — and the receives they completed.
// The engine's communicator writes it when a row is attached to it. One
// rank goroutine writes a row and it is read after that rank finished,
// so, unlike the counter shards, it is plain memory. The zero value is
// ready to use.
type TrafficRow struct {
	Total, Intra, Inter Counts
	// ByTag is keyed by the tag the collectives' phases stamp on their
	// messages, so a breakdown separates scatter traffic from ring
	// traffic whatever tag stream the engine ran them in.
	ByTag map[int]*Counts
	// Recvs counts completed receives (equal to Total.Messages after a
	// clean run).
	Recvs int64
}

// Sent records one n-byte message sent under tag; intra reports whether
// its receiver shares the sender's node.
func (r *TrafficRow) Sent(tag, n int, intra bool) {
	c := Counts{Messages: 1, Bytes: int64(n)}
	r.Total.Add(c)
	if intra {
		r.Intra.Add(c)
	} else {
		r.Inter.Add(c)
	}
	t := r.ByTag[tag]
	if t == nil {
		if r.ByTag == nil {
			r.ByTag = map[int]*Counts{}
		}
		t = new(Counts)
		r.ByTag[tag] = t
	}
	t.Add(c)
}
