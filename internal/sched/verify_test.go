package sched

import (
	"strings"
	"testing"
)

func TestVerifyPingPong(t *testing.T) {
	res, err := Verify(pingPong(), "allgather")
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 || res.InvalidTransfers != 0 || res.RedundantMessages != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestVerifyDetectsDeadlock(t *testing.T) {
	// Two ranks that both Recv first: classic head-to-head deadlock.
	pr := New("deadlock", 2, 8, 0)
	pr.Add(0, Op{Kind: OpRecv, From: 1, RecvOff: 0, RecvLen: 4, Tag: 1})
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpSend, To: 0, SendOff: 0, SendLen: 4, Tag: 1})
	_, err := Verify(pr, "reduce")
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestVerifySendrecvRingDoesNotDeadlock(t *testing.T) {
	// A 3-rank Sendrecv ring allgather: blocking sends would deadlock,
	// MPI_Sendrecv semantics must not.
	const p, n = 3, 3
	pr := New("sr-ring", p, n, 0)
	for step := 1; step < p; step++ {
		for r := 0; r < p; r++ {
			right, left := (r+1)%p, (r+p-1)%p
			pr.Add(r, Op{
				Kind: OpSendrecv,
				To:   right, SendOff: (r - step + 1 + p) % p, SendLen: 1,
				From: left, RecvOff: (r - step + p) % p, RecvLen: 1,
				Tag: 1, Step: step,
			})
		}
	}
	res, err := Verify(pr, "allgather")
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != p*(p-1) {
		t.Fatalf("delivered %d want %d", res.Delivered, p*(p-1))
	}
}

func TestVerifyDetectsInvalidTransfer(t *testing.T) {
	// Rank 0 holds [0,4) and sends [4,8).
	pr := New("invalid", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 4, SendLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 4, RecvLen: 4, Tag: 1})
	res, err := Verify(pr, "gather")
	if err == nil || !strings.Contains(err.Error(), "did not own") {
		t.Fatalf("want invalid-transfer error, got %v", err)
	}
	if res == nil || res.InvalidTransfers != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestVerifyInvalidDataDoesNotGrantOwnership(t *testing.T) {
	// Rank 0 holds [0,4) and sends [0,8) over rank 1's own [4,8): the
	// plain receive replaces rank 1's bytes with what the message
	// carries, which is nothing at [4,8).
	pr := New("invalid-own", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 8, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 8, Tag: 1})
	res, _ := Verify(pr, "gather")
	if res == nil {
		t.Fatal("expected a result alongside the error")
	}
	if got := res.Final[1].String(); got != "{[0,4)}" {
		t.Fatalf("receiver ends holding %s, want {[0,4)}", got)
	}
}

func TestVerifyCountsRedundantMessages(t *testing.T) {
	// Rank 1 sends back to the root a chunk the root sent it.
	pr := New("redundant", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1})
	pr.Add(0, Op{Kind: OpRecv, From: 1, RecvOff: 0, RecvLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpSend, To: 0, SendOff: 0, SendLen: 4, Tag: 1})
	res, err := Verify(pr, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.RedundantMessages != 1 || res.RedundantBytes != 4 {
		t.Fatalf("redundancy = %d msgs / %d bytes, want 1/4", res.RedundantMessages, res.RedundantBytes)
	}
}

// TestVerifyBcastEndCondition: a broadcast starts with the root holding
// the buffer, and fails unless every rank ends holding all of it.
func TestVerifyBcastEndCondition(t *testing.T) {
	pr := New("half", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 4, Tag: 1})
	_, err := Verify(pr, "bcast")
	if err == nil || !strings.Contains(err.Error(), "rank 1 ends holding [] at [4,8), want [0]") {
		t.Fatalf("want final-coverage error, got %v", err)
	}
	pr.Ranks[0][0].SendLen, pr.Ranks[1][0].RecvLen = 8, 8
	res, err := Verify(pr, "bcast")
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidTransfers != 0 {
		t.Fatalf("root must hold the full buffer: %+v", res)
	}
}

func TestVerifyFIFOMatchingLengthConflict(t *testing.T) {
	// Sender issues a 4-byte then an 8-byte message on the same channel;
	// receiver posts the 8-byte recv first. FIFO matching pairs it with
	// the 4-byte message: length conflict must be reported.
	pr := New("fifo", 2, 16, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1})
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 8, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 8, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 4, Tag: 1})
	_, err := Verify(pr, "")
	if err == nil || !strings.Contains(err.Error(), "send 4 bytes, recv 8 bytes") {
		t.Fatalf("want FIFO mismatch error, got %v", err)
	}
}

func TestVerifyDistinctTagsMatchIndependently(t *testing.T) {
	// Same channel, two tags posted in "crossed" order: tag matching must
	// pair them correctly (no error).
	pr := New("tags", 2, 16, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1})
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 4, SendLen: 8, Tag: 2})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 4, RecvLen: 8, Tag: 2})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 4, Tag: 1})
	if _, err := Verify(pr, ""); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsInvalidProgram(t *testing.T) {
	pr := New("invalid-prog", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 9, SendLen: 1, Tag: 1})
	if _, err := Verify(pr, ""); err == nil {
		t.Fatal("Verify must reject structurally invalid programs")
	}
}

// TestVerifyRejectsUnknownCollectives: an op Verify has no start and end
// for, and a chunked collective whose chunks would be unequal.
func TestVerifyRejectsUnknownCollectives(t *testing.T) {
	for _, tc := range []struct{ op, want string }{
		{"alltoall", `unknown collective "alltoall"`},
		{"gather", "chunks must be equal"},
	} {
		if _, err := Verify(New("x", 3, 8, 0), tc.op); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.op, err, tc.want)
		}
	}
}

// TestVerifyRejectsUnmatchedMessages: Verify matches each channel once, as
// it runs, so it must still reject what Validate's channel pass rejects —
// a receive of another length than its message, a send no receive
// matches, and a receive no send matches.
func TestVerifyRejectsUnmatchedMessages(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		ops        [2][]Op
	}{
		{"length mismatch", "channel 0->1 tag 1: send 4 bytes, recv 3 bytes", [2][]Op{
			{{Kind: OpSend, To: 1, SendLen: 4, Tag: 1}},
			{{Kind: OpRecv, From: 0, RecvLen: 3, Tag: 1}},
		}},
		{"send without receive", "channel 0->1 tag 2 has 1 sends without recvs", [2][]Op{
			{{Kind: OpSend, To: 1, SendLen: 4, Tag: 1}, {Kind: OpSend, To: 1, SendLen: 4, Tag: 2}},
			{{Kind: OpRecv, From: 0, RecvLen: 4, Tag: 1}},
		}},
		{"receive without send", "deadlock", [2][]Op{
			{{Kind: OpSend, To: 1, SendLen: 4, Tag: 1}},
			{{Kind: OpRecv, From: 0, RecvLen: 4, Tag: 1}, {Kind: OpRecv, From: 0, RecvLen: 4, Tag: 2}},
		}},
	} {
		pr := New(tc.name, 2, 8, 0)
		for r, ops := range tc.ops {
			for _, op := range ops {
				pr.Add(r, op)
			}
		}
		if pr.Validate() == nil {
			t.Fatalf("%s: Validate accepts the program", tc.name)
		}
		if _, err := Verify(pr, ""); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}
