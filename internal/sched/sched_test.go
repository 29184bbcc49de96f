package sched

import (
	"slices"
	"strings"
	"testing"
)

// pingPong builds a 2-rank program: 0 sends [0,4) to 1, 1 sends [4,8) back.
func pingPong() *Program {
	pr := New("ping-pong", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1, Step: 1})
	pr.Add(0, Op{Kind: OpRecv, From: 1, RecvOff: 4, RecvLen: 4, Tag: 2, Step: 2})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 4, Tag: 1, Step: 1})
	pr.Add(1, Op{Kind: OpSend, To: 0, SendOff: 4, SendLen: 4, Tag: 2, Step: 2})
	return pr
}

func TestValidateOK(t *testing.T) {
	if err := pingPong().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsUnmatchedSend(t *testing.T) {
	pr := pingPong()
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 1, Tag: 9})
	if err := pr.Validate(); err == nil {
		t.Fatal("expected error for send without recv")
	}
}

func TestValidateDetectsUnmatchedRecv(t *testing.T) {
	pr := pingPong()
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 1, Tag: 9})
	if err := pr.Validate(); err == nil {
		t.Fatal("expected error for recv without send")
	}
}

func TestValidateDetectsLengthMismatch(t *testing.T) {
	pr := New("mismatch", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 3, Tag: 1})
	if err := pr.Validate(); err == nil || !strings.Contains(err.Error(), "send 4 bytes, recv 3 bytes") {
		t.Fatalf("want length mismatch error, got %v", err)
	}
}

func TestValidateDetectsSelfSend(t *testing.T) {
	pr := New("self", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 0, SendLen: 1, Tag: 1})
	if err := pr.Validate(); err == nil {
		t.Fatal("expected self-send error")
	}
}

func TestValidateDetectsOutOfRangeRank(t *testing.T) {
	pr := New("range", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 5, SendLen: 1, Tag: 1})
	if err := pr.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestValidateDetectsBufferOverrun(t *testing.T) {
	pr := New("overrun", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSend, To: 1, SendOff: 6, SendLen: 4, Tag: 1})
	pr.Add(1, Op{Kind: OpRecv, From: 0, RecvOff: 0, RecvLen: 4, Tag: 1})
	if err := pr.Validate(); err == nil {
		t.Fatal("expected buffer overrun error")
	}
}

func TestValidateDetectsBadRoot(t *testing.T) {
	pr := New("badroot", 2, 8, 5)
	if err := pr.Validate(); err == nil {
		t.Fatal("expected root range error")
	}
}

func TestStats(t *testing.T) {
	pr := pingPong()
	s := pr.Stats()
	if s.Messages != 2 || s.NonEmptyMessages != 2 || s.Bytes != 8 || s.MaxStep != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStatsCountsSendrecvOnceAndEmpties(t *testing.T) {
	pr := New("sr", 2, 8, 0)
	pr.Add(0, Op{Kind: OpSendrecv, To: 1, SendOff: 0, SendLen: 0, From: 1, RecvOff: 0, RecvLen: 4, Tag: 1, Step: 1})
	pr.Add(1, Op{Kind: OpSendrecv, To: 0, SendOff: 0, SendLen: 4, From: 0, RecvOff: 0, RecvLen: 0, Tag: 1, Step: 1})
	s := pr.Stats()
	if s.Messages != 2 {
		t.Fatalf("messages = %d want 2 (one per sendrecv)", s.Messages)
	}
	if s.NonEmptyMessages != 1 {
		t.Fatalf("nonEmpty = %d want 1 (zero-byte send excluded)", s.NonEmptyMessages)
	}
	if s.Bytes != 4 {
		t.Fatalf("bytes = %d want 4", s.Bytes)
	}
}

// pingOps is pingPong's first exchange written as an Emitter.
func pingOps(dst []Op, rank, p, root, n, seg int) []Op {
	if rank == root {
		return append(dst, Op{Kind: OpSend, To: 1 - root, SendLen: n, Tag: 1})
	}
	return append(dst, Op{Kind: OpRecv, From: root, RecvLen: n, Tag: 1})
}

func TestGenerateRunsTheEmitterPerRank(t *testing.T) {
	pr := Generate("ping-twice", Emitter(pingOps).Then(pingOps), 2, 1, 4, 0)
	if pr.P != 2 || pr.N != 4 || pr.Root != 1 || pr.Name != "ping-twice" {
		t.Fatalf("header: %+v", pr)
	}
	if len(pr.OpsOf(0)) != 2 || len(pr.OpsOf(1)) != 2 {
		t.Fatalf("op counts: %d, %d", len(pr.OpsOf(0)), len(pr.OpsOf(1)))
	}
	if pr.OpsOf(1)[0].Kind != OpSend || pr.OpsOf(0)[1].Kind != OpRecv {
		t.Fatalf("phases out of order:\n%s", pr.Dump())
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReverse: reversing runs a rank's ops backwards with each op's
// halves swapped, leaves what dst already held alone, and undoes itself.
func TestReverse(t *testing.T) {
	prefix := Op{Kind: OpSend, To: 9, SendLen: 99, Tag: 9}
	fwd := []Op{
		{Kind: OpRecv, From: 1, RecvOff: 0, RecvLen: 4, Tag: 1, Step: 0},
		{Kind: OpSendrecv, To: 2, SendOff: 4, SendLen: 2, From: 3, RecvOff: 6, RecvLen: 1, Tag: 2, Step: 1},
		{Kind: OpSend, To: 4, SendOff: 7, SendLen: 1, Tag: 3, Step: 2},
	}
	e := Emitter(func(dst []Op, rank, p, root, n, seg int) []Op { return append(dst, fwd...) })
	want := []Op{
		{Kind: OpRecv, From: 4, RecvOff: 7, RecvLen: 1, Tag: 3, Step: 2},
		{Kind: OpSendrecv, To: 3, SendOff: 6, SendLen: 1, From: 2, RecvOff: 4, RecvLen: 2, Tag: 2, Step: 1},
		{Kind: OpSend, To: 1, SendOff: 0, SendLen: 4, Tag: 1, Step: 0},
	}
	got := e.Reverse()([]Op{prefix}, 0, 5, 0, 8, 0)
	if !slices.Equal(got, append([]Op{prefix}, want...)) {
		t.Fatalf("reversed once: %v, want %v after the prefix", got, want)
	}
	if twice := e.Reverse().Reverse()(nil, 0, 5, 0, 8, 0); !slices.Equal(twice, fwd) {
		t.Fatalf("reversed twice: %v, want %v", twice, fwd)
	}
}

func TestGeneratePanicsOnBadArgs(t *testing.T) {
	for _, args := range [][3]int{{0, 0, 4}, {2, 2, 4}, {2, -1, 4}, {2, 0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generate(p=%d, root=%d, n=%d) did not panic", args[0], args[1], args[2])
				}
			}()
			Generate("bad", pingOps, args[0], args[1], args[2], 0)
		}()
	}
}

func TestOpsOfOutOfRange(t *testing.T) {
	pr := pingPong()
	if pr.OpsOf(-1) != nil || pr.OpsOf(2) != nil {
		t.Fatal("out-of-range OpsOf should return nil")
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Kind: OpSend, To: 3, SendOff: 8, SendLen: 4, Tag: 7}, "send(to=3 [8,12) tag=7)"},
		{Op{Kind: OpRecv, From: 1, RecvOff: 0, RecvLen: 4, Tag: 7}, "recv(from=1 [0,4) tag=7)"},
		{Op{Kind: OpSendrecv, To: 3, SendOff: 8, SendLen: 4, From: 1, RecvOff: 0, RecvLen: 4, Tag: 7},
			"sendrecv(to=3 [8,12) from=1 [0,4) tag=7)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("op string = %q want %q", got, c.want)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpSend.String() != "send" || OpRecv.String() != "recv" || OpSendrecv.String() != "sendrecv" {
		t.Fatal("kind strings wrong")
	}
	if OpKind(9).String() != "OpKind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestDumpContainsAllOps(t *testing.T) {
	d := pingPong().Dump()
	for _, want := range []string{"ping-pong", "rank 0", "rank 1", "send(to=1", "recv(from=0"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}
