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

// TestElideAllocatesNothing: once dst and the pooled scratch have grown,
// an elided emit allocates nothing.
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
