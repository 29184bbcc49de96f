package sched

import (
	"reflect"
	"testing"
)

// pingPongOps is pingPong as an emitter: the root sends [0,4) to the
// other rank and gets [4,8) back.
func pingPongOps(dst []Op, rank, _, root, _, _ int) []Op {
	peer := 1 - rank
	if rank == root {
		return append(dst,
			Op{Kind: OpSend, To: peer, SendOff: 0, SendLen: 4, Tag: 1, Step: 1},
			Op{Kind: OpRecv, From: peer, RecvOff: 4, RecvLen: 4, Tag: 2, Step: 2})
	}
	return append(dst,
		Op{Kind: OpRecv, From: peer, RecvOff: 0, RecvLen: 4, Tag: 1, Step: 1},
		Op{Kind: OpSend, To: peer, SendOff: 4, SendLen: 4, Tag: 2, Step: 2})
}

// starOps is a flat tree: the root sends the whole buffer to every other
// rank, in rank order.
func starOps(dst []Op, rank, p, root, n, _ int) []Op {
	if rank != root {
		return append(dst, Op{Kind: OpRecv, From: root, RecvLen: n, Tag: 3})
	}
	for r := 0; r < p; r++ {
		if r != root {
			dst = append(dst, Op{Kind: OpSend, To: r, SendLen: n, Tag: 3})
		}
	}
	return dst
}

// on is e run on group, as the emitter of a len(world)-rank program.
func on(e Emitter, group []int) Emitter {
	return func(dst []Op, rank, _, root, n, seg int) []Op {
		return OnGroup(dst, e, group, rank, root, n, seg)
	}
}

func TestOnGroupPermutation(t *testing.T) {
	// World rank 1 plays position 0 and is the root: the root's ops now
	// live on world rank 1, pointed at world rank 0.
	pr := Generate("swapped", on(pingPongOps, []int{1, 0}), 2, 1, 8, 0)
	ops := pr.OpsOf(1)
	if len(ops) != 2 || ops[0].Kind != OpSend || ops[0].To != 0 || ops[1].From != 0 {
		t.Fatalf("root's ops on world rank 1: %v", ops)
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOnGroupIdentity(t *testing.T) {
	want := pingPong()
	got := Generate("identity", on(pingPongOps, []int{0, 1}), 2, 0, 8, 0)
	if !reflect.DeepEqual(got.Ranks, want.Ranks) {
		t.Fatalf("identity group changed the program:\n%s\nwant\n%s", got.Dump(), want.Dump())
	}
}

func TestOnGroupLeavesEarlierOpsAlone(t *testing.T) {
	// Only the ops the inner emitter appends are mapped: a phase composed
	// after another must not rename the first phase's peers again.
	first := Op{Kind: OpSend, To: 1, SendLen: 4, Tag: 9}
	dst := OnGroup([]Op{first}, pingPongOps, []int{1, 0}, 0, 1, 8, 0)
	if len(dst) != 3 || dst[0] != first {
		t.Fatalf("earlier op rewritten: %v", dst)
	}
}

func TestOnGroupRootMustBeAMember(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a root outside the group must panic")
		}
	}()
	OnGroup(nil, starOps, []int{4, 1, 3}, 1, 2, 8, 0)
}

func TestOnGroupPreservesStats(t *testing.T) {
	base := Generate("star", starOps, 5, 2, 64, 0)
	perm := Generate("star-permuted", on(starOps, []int{3, 0, 4, 1, 2}), 5, 2, 64, 0)
	if base.Stats() != perm.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", base.Stats(), perm.Stats())
	}
	if _, err := Verify(perm, "bcast"); err != nil {
		t.Fatal(err)
	}
}

func TestOnGroupProperSubset(t *testing.T) {
	group := []int{4, 1, 3}
	member := map[int]bool{4: true, 1: true, 3: true}
	// The root at position 0 of the group, then elsewhere in it.
	for _, root := range []int{4, 1} {
		pr := Generate("star-on-subset", on(starOps, group), 6, root, 16, 0)
		res, err := Verify(pr, "")
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		for rank := 0; rank < pr.P; rank++ {
			ops := pr.OpsOf(rank)
			if !member[rank] {
				if len(ops) != 0 {
					t.Fatalf("root %d: non-member %d emits %v", root, rank, ops)
				}
				continue
			}
			if !res.Final[rank].Contains(0, 16) {
				t.Fatalf("root %d: member %d ends with %v", root, rank, res.Final[rank])
			}
			for _, op := range ops {
				if peer := map[OpKind]int{OpSend: op.To, OpRecv: op.From}[op.Kind]; !member[peer] {
					t.Fatalf("root %d: member %d talks to non-member: %s", root, rank, op)
				}
			}
		}
		if got := len(pr.OpsOf(root)); got != len(group)-1 {
			t.Fatalf("root %d sends %d messages, want %d", root, got, len(group)-1)
		}
	}
}
