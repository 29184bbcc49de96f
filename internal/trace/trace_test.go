package trace

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
)

func TestCollectorCountsSends(t *testing.T) {
	col := NewCollector()
	err := engine.Run(2, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		if tc.Rank() == 0 {
			return tc.Send(make([]byte, 100), 1, 5)
		}
		buf := make([]byte, 100)
		_, err := tc.Recv(buf, 0, 5)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := col.Stats()
	if s.Total.Messages != 1 || s.Total.Bytes != 100 {
		t.Fatalf("total = %+v", s.Total)
	}
	if s.Recvs != 1 {
		t.Fatalf("recvs = %d", s.Recvs)
	}
	if s.ByTag[5].Messages != 1 || s.ByTag[5].Bytes != 100 {
		t.Fatalf("byTag = %+v", s.ByTag)
	}
	if s.Intra.Messages != 1 || s.Inter.Messages != 0 {
		t.Fatalf("single node must be all intra: %+v", s)
	}
}

func TestCollectorClassifiesInterNode(t *testing.T) {
	col := NewCollector()
	topo := topology.Blocked(4, 2)
	err := engine.RunWith(engine.Options{NP: 4, Topology: topo}, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		switch tc.Rank() {
		case 0:
			if err := tc.Send(make([]byte, 10), 1, 1); err != nil { // intra (node 0)
				return err
			}
			return tc.Send(make([]byte, 20), 2, 1) // inter (node 0 -> 1)
		case 1:
			_, err := tc.Recv(make([]byte, 10), 0, 1)
			return err
		case 2:
			_, err := tc.Recv(make([]byte, 20), 0, 1)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := col.Stats()
	if s.Intra.Messages != 1 || s.Intra.Bytes != 10 {
		t.Fatalf("intra = %+v", s.Intra)
	}
	if s.Inter.Messages != 1 || s.Inter.Bytes != 20 {
		t.Fatalf("inter = %+v", s.Inter)
	}
}

func TestCollectorCountsSendrecvOnce(t *testing.T) {
	col := NewCollector()
	err := engine.Run(2, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		peer := 1 - tc.Rank()
		out := make([]byte, 8)
		in := make([]byte, 8)
		_, err := tc.Sendrecv(out, peer, 3, in, peer, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := col.Stats()
	if s.Total.Messages != 2 || s.Total.Bytes != 16 {
		t.Fatalf("sendrecv pair should record 2 messages: %+v", s.Total)
	}
	if s.Recvs != 2 {
		t.Fatalf("recvs = %d", s.Recvs)
	}
}

func TestCollectorTracksSubComms(t *testing.T) {
	col := NewCollector()
	err := engine.Run(4, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		sub, err := tc.Split(tc.Rank()%2, tc.Rank())
		if err != nil {
			return err
		}
		if sub.Rank() == 0 {
			return sub.Send(make([]byte, 7), 1, 9)
		}
		_, err = sub.Recv(make([]byte, 7), 0, 9)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := col.Stats()
	if s.Total.Messages != 2 || s.Total.Bytes != 14 {
		t.Fatalf("sub-comm traffic not recorded: %+v", s.Total)
	}
}

// TestCollectorSplitUndefined: a recording communicator splits like any
// other — an Undefined color yields a nil Comm — and the Split handshake,
// the engine's own traffic, is not counted.
func TestCollectorSplitUndefined(t *testing.T) {
	col := NewCollector()
	err := engine.Run(2, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		color := 0
		if tc.Rank() == 1 {
			color = mpi.Undefined
		}
		sub, err := tc.Split(color, 0)
		if err != nil {
			return err
		}
		if tc.Rank() == 1 && sub != nil {
			t.Error("undefined split must be nil")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := col.Stats(); s.Total.Messages != 0 || s.Recvs != 0 {
		t.Fatalf("the Split handshake was counted: %v", s)
	}
}

// TestRecordingFollowsTheCommunicator: the views made from a recording
// communicator — bound to a context, split off it — count into the
// slot of the rank that made them, and nowhere else.
func TestRecordingFollowsTheCommunicator(t *testing.T) {
	col := NewCollector()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := engine.Run(4, func(c mpi.Comm) error {
		bound := mpi.WithContext(ctx, col.WrapSlot(c.Rank(), c))
		sub, err := bound.Split(bound.Rank()%2, bound.Rank())
		if err != nil {
			return err
		}
		// Ranks 0 and 1 send: 10 bytes over the bound comm, 3 over the split.
		if c.Rank() < 2 {
			if err := bound.Send(make([]byte, 10), c.Rank()+2, 1); err != nil {
				return err
			}
			return sub.Send(make([]byte, 3), 1, 2)
		}
		if _, err := bound.Recv(make([]byte, 10), c.Rank()-2, 1); err != nil {
			return err
		}
		_, err = sub.Recv(make([]byte, 3), 0, 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, row := range col.rows {
		sent, recvs := Counts{}, int64(0)
		if rank < 2 {
			sent = Counts{Messages: 2, Bytes: 13}
		} else {
			recvs = 2
		}
		if row.Total != sent || row.Recvs != recvs {
			t.Errorf("slot %d: sent %+v, %d receives; want %+v, %d", rank, row.Total, row.Recvs, sent, recvs)
		}
	}
}

// TestWrapSlotCountsThroughAWrapper: every mpi.Comm records its traffic,
// so a communicator that only wraps another is traced like the one it
// wraps; tracing never silently counts nothing.
func TestWrapSlotCountsThroughAWrapper(t *testing.T) {
	col := NewCollector()
	err := engine.Run(2, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), struct{ mpi.Comm }{c})
		if tc.Rank() == 0 {
			return tc.Send(make([]byte, 7), 1, 4)
		}
		_, err := tc.Recv(make([]byte, 7), 0, 4)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := col.Stats(); s.Total != (Counts{Messages: 1, Bytes: 7}) || s.Recvs != 1 {
		t.Fatalf("wrapped comm traced as %+v, %d receives; want 1 message of 7 bytes, 1 receive", s.Total, s.Recvs)
	}
}

func TestStatsString(t *testing.T) {
	col := NewCollector()
	err := engine.Run(2, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		if tc.Rank() == 0 {
			return tc.Send(make([]byte, 3), 1, 0x7F02)
		}
		_, err := tc.Recv(make([]byte, 3), 0, 0x7F02)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := col.Stats().String()
	for _, want := range []string{"msgs=1", "bytes=3", "tag[0x7f02]=1/3"} {
		if !strings.Contains(got, want) {
			t.Fatalf("stats string %q missing %q", got, want)
		}
	}
}

func TestFailedSendNotCounted(t *testing.T) {
	col := NewCollector()
	err := engine.Run(2, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		if tc.Rank() == 0 {
			if err := tc.Send(nil, 99, 1); err == nil {
				t.Error("expected rank error")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := col.Stats(); s.Total.Messages != 0 {
		t.Fatalf("failed send was counted: %+v", s.Total)
	}
}

// TestPrepostForwardedAndCountedOnce: a traced communicator still posts
// receives early; a completed request is re-armed in place; and each
// receive it carries is counted once, at the first Wait that sees it
// complete, so a clean run still shows recvs == msgs.
func TestPrepostForwardedAndCountedOnce(t *testing.T) {
	col := NewCollector()
	err := engine.Run(2, func(c mpi.Comm) error {
		tc := col.WrapSlot(c.Rank(), c)
		if tc.Rank() == 0 {
			for i := 0; i < 2; i++ {
				if err := tc.Send(make([]byte, 64), 1, 3); err != nil {
					return err
				}
			}
			return nil
		}
		var req mpi.Request
		for i := 0; i < 2; i++ {
			r, ok := tc.Prepost(req, make([]byte, 64), 0, 3)
			if !ok {
				return fmt.Errorf("traced Prepost declined a local source")
			}
			if req != nil && r != req {
				return fmt.Errorf("a completed traced request was not re-armed in place")
			}
			for j := 0; j < 2; j++ { // Wait is idempotent; so is the count
				if _, err := r.Wait(); err != nil {
					return err
				}
			}
			req = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := col.Stats(); s.Recvs != 2 || s.Total.Messages != 2 {
		t.Fatalf("recvs=%d msgs=%d, want 2 and 2", s.Recvs, s.Total.Messages)
	}
}
