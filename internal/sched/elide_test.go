package sched

import (
	"slices"
	"testing"

	"repro/internal/testutil"
)

// table is the emitter of a fixed program: rank r runs ops[r].
func table(ops ...[]Op) Emitter {
	return func(dst []Op, rank, _, _, _, _ int) []Op { return append(dst, ops[rank]...) }
}

func send(to, off, n, tag int) Op {
	return Op{Kind: OpSend, To: to, SendOff: off, SendLen: n, Tag: tag}
}
func recv(from, off, n, tag int) Op {
	return Op{Kind: OpRecv, From: from, RecvOff: off, RecvLen: n, Tag: tag}
}

// elideCases are hand-built programs over an 8-byte buffer rooted at rank
// 0, each with what Elide must leave of it.
var elideCases = []struct {
	name     string
	in, want [][]Op
}{
	{
		"a receive of held bytes goes, and so does its send",
		[][]Op{{send(1, 0, 4, 1), recv(1, 0, 4, 2)}, {recv(0, 0, 4, 1), send(0, 0, 4, 2)}},
		[][]Op{{send(1, 0, 4, 1)}, {recv(0, 0, 4, 1)}},
	},
	{
		// Rank 1 takes tag 2 first, so its tag-1 receive is the repeat.
		"two tags to one neighbour are each matched in order",
		[][]Op{{send(1, 0, 4, 1), send(1, 0, 4, 2)}, {recv(0, 0, 4, 2), recv(0, 0, 4, 1)}},
		[][]Op{{send(1, 0, 4, 2)}, {recv(0, 0, 4, 2)}},
	},
	{
		"an empty transfer goes",
		[][]Op{{send(1, 0, 0, 1), send(1, 0, 4, 1)}, {recv(0, 0, 0, 1), recv(0, 0, 4, 1)}},
		[][]Op{{send(1, 0, 4, 1)}, {recv(0, 0, 4, 1)}},
	},
	{
		// A three-rank scatter and one ring step: the root receives
		// nothing it lacks, so its exchange and rank 2's lose a half.
		"a sendrecv that loses a half keeps the other, the lost one zeroed",
		[][]Op{
			{send(1, 0, 4, 1), send(2, 4, 4, 1), {Kind: OpSendrecv, To: 1, SendOff: 4, SendLen: 4, From: 2, RecvOff: 0, RecvLen: 4, Tag: 2, Step: 1}},
			{recv(0, 0, 4, 1), {Kind: OpSendrecv, To: 2, SendOff: 0, SendLen: 4, From: 0, RecvOff: 4, RecvLen: 4, Tag: 2, Step: 1}},
			{recv(0, 4, 4, 1), {Kind: OpSendrecv, To: 0, SendOff: 4, SendLen: 4, From: 1, RecvOff: 0, RecvLen: 4, Tag: 2, Step: 1}},
		},
		[][]Op{
			{send(1, 0, 4, 1), send(2, 4, 4, 1), {Kind: OpSend, To: 1, SendOff: 4, SendLen: 4, Tag: 2, Step: 1}},
			{recv(0, 0, 4, 1), {Kind: OpSendrecv, To: 2, SendOff: 0, SendLen: 4, From: 0, RecvOff: 4, RecvLen: 4, Tag: 2, Step: 1}},
			{recv(0, 4, 4, 1), {Kind: OpRecv, From: 1, RecvOff: 0, RecvLen: 4, Tag: 2, Step: 1}},
		},
	},
	{
		"a partly held receive is kept whole",
		[][]Op{{send(1, 0, 4, 1), send(1, 2, 4, 1)}, {recv(0, 0, 4, 1), recv(0, 2, 4, 1)}},
		[][]Op{{send(1, 0, 4, 1), send(1, 2, 4, 1)}, {recv(0, 0, 4, 1), recv(0, 2, 4, 1)}},
	},
	{
		"a range received twice keeps only the first receipt",
		[][]Op{
			{send(1, 0, 4, 1), send(2, 0, 4, 1)},
			{recv(0, 0, 4, 1), recv(2, 0, 4, 1)},
			{recv(0, 0, 4, 1), send(1, 0, 4, 1)},
		},
		[][]Op{{send(1, 0, 4, 1), send(2, 0, 4, 1)}, {recv(0, 0, 4, 1)}, {recv(0, 0, 4, 1)}},
	},
}

// TestElide checks each case rank by rank, and that eliding the result
// again changes nothing.
func TestElide(t *testing.T) {
	for _, tc := range elideCases {
		p := len(tc.in)
		once := table(tc.in...).Elide()
		twice := once.Elide()
		for rank := range p {
			got := once(nil, rank, p, 0, 8, 0)
			if !slices.Equal(got, tc.want[rank]) {
				t.Errorf("%s: rank %d: got %v want %v", tc.name, rank, got, tc.want[rank])
			}
			if again := twice(nil, rank, p, 0, 8, 0); !slices.Equal(again, got) {
				t.Errorf("%s: rank %d: elided twice %v, once %v", tc.name, rank, again, got)
			}
		}
	}
}

// TestElideLeavesEarlierOpsAlone: like every emitter, an elided one only
// appends to dst.
func TestElideLeavesEarlierOpsAlone(t *testing.T) {
	tc := elideCases[3]
	prefix := []Op{send(2, 0, 8, 9), recv(1, 0, 8, 9)}
	got := table(tc.in...).Elide()(slices.Clone(prefix), 2, 3, 0, 8, 0)
	if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], tc.want[2]) {
		t.Fatalf("got %v", got)
	}
}

// TestElideAllocatesNothing: once dst has grown and the memo holds the
// shape, an elided emit allocates nothing.
func TestElideAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tc := elideCases[3]
	e := table(tc.in...).Elide()
	var dst []Op
	emit := func() {
		for rank := range 3 {
			dst = e(dst[:0], rank, 3, 0, 8, 0)
		}
	}
	emit()
	if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
		t.Fatalf("elided emit allocates %.1f times per run", allocs)
	}
}

// TestElideMemoBound: an elided emitter's memo holds at most memoCap
// ops once every rank has taken its slice, least recently used out
// first, and a program larger than the cap is built once, reaches all
// its ranks, and is then dropped.
func TestElideMemoBound(t *testing.T) {
	const p = 8
	builds := 0
	// One-byte segments down a chain from rank 0: 2·(p−1)·seg ops.
	chain := Emitter(func(dst []Op, rank, p, _, _, seg int) []Op {
		if rank == 0 {
			builds++
		}
		for s := range seg {
			if rank > 0 {
				dst = append(dst, recv(rank-1, s, 1, 1))
			}
			if rank < p-1 {
				dst = append(dst, send(rank+1, s, 1, 1))
			}
		}
		return dst
	})
	var m memo
	ask := func(seg, rank int) []Op { return m.get(chain, shape{p, 0, seg, seg}, rank) }
	const shapes, small = 40, 140 // ~2,000 ops each: more than the cap holds
	for k := range shapes {
		for rank := range p {
			ask(small+k, rank)
		}
		held := 0
		for _, pr := range m.progs {
			held += len(pr.ops) + 1
		}
		if held != m.held || held > memoCap {
			t.Fatalf("after %d shapes the memo holds %d ops and counts %d, cap %d", k+1, held, m.held, memoCap)
		}
	}
	if builds != shapes || len(m.progs) == shapes || m.progs[0].seg != small+shapes-1 {
		t.Fatalf("%d builds, %d programs held, the newest first: %+v", builds, len(m.progs), m.progs[0].shape)
	}
	ask(small+shapes-2, 0)
	if builds != shapes || m.progs[0].seg != small+shapes-2 {
		t.Fatalf("a held shape was rebuilt (%d builds) or not moved to the front", builds)
	}

	big := memoCap/(2*(p-1)) + 1
	builds = 0
	got := make([][]Op, p)
	for rank := range p {
		got[rank] = ask(big, rank)
	}
	if builds != 1 || m.held > memoCap {
		t.Fatalf("a program above the cap: %d builds, %d ops held after its ranks took their slices", builds, m.held)
	}
	oracle := ElidePerRank(chain)
	for rank := range p {
		if want := oracle(nil, rank, p, 0, big, big); !slices.Equal(got[rank], want) {
			t.Fatalf("rank %d of the program above the cap: %d ops, want %d", rank, len(got[rank]), len(want))
		}
	}
}
