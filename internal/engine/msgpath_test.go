package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/mpi"
	"repro/internal/testutil"
)

// What a message costs and whom it touches: the blocking calls keep their
// requests on the stack, a send that finds its receive posted copies once
// and takes nothing from bufpool, the watchdog reads every rank's
// progress, and the credit window is kept per sender world rank.

// TestBlockingCallsKeepRequestsOnStack: a warm 2-rank world allocates
// nothing for an eager Send/Recv ping-pong nor for a Sendrecv exchange —
// the requests did not escape, and nothing else per message is new.
func TestBlockingCallsKeepRequestsOnStack(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const runs = 200
	exchanges := map[string]func(c mpi.Comm, out, in []byte) error{
		"send-recv": func(c mpi.Comm, out, in []byte) error {
			peer := 1 - c.Rank()
			if c.Rank() == 0 {
				if err := c.Send(out, peer, 1); err != nil {
					return err
				}
				_, err := c.Recv(in, peer, 2)
				return err
			}
			if _, err := c.Recv(in, peer, 1); err != nil {
				return err
			}
			return c.Send(out, peer, 2)
		},
		"sendrecv": func(c mpi.Comm, out, in []byte) error {
			peer := 1 - c.Rank()
			_, err := c.Sendrecv(out, peer, 3, in, peer, 3)
			return err
		},
	}
	for name, exchange := range exchanges {
		w, err := NewWorld(testOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		var allocs float64
		err = w.Run(func(c mpi.Comm) error {
			out, in := make([]byte, 64), make([]byte, 64)
			var failed error
			round := func() {
				if err := exchange(c, out, in); err != nil && failed == nil {
					failed = err
				}
			}
			for i := 0; i < 50; i++ { // fill the pools
				round()
			}
			if c.Rank() == 0 {
				// AllocsPerRun counts the whole process, rank 1 included.
				allocs = testing.AllocsPerRun(runs, round)
			} else {
				for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call and its runs
					round()
				}
			}
			return failed
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per exchange, want 0", name, allocs)
		}
	}
}

// poolActivity is the process's bufpool gets and puts, all classes.
func poolActivity() (gets, puts int64) {
	classes, _, _ := bufpool.Stats()
	for _, c := range classes {
		gets, puts = gets+c.Gets, puts+c.Puts
	}
	return gets, puts
}

// TestMatchedPostedEagerSendCopiesOnce: an eager send whose receive is
// already posted moves no bufpool counter and stages nothing; the same
// send with no receive posted takes one buffer and stages len(buf) bytes,
// and the receive that consumes it gives the buffer back.
func TestMatchedPostedEagerSendCopiesOnce(t *testing.T) {
	const size = 1000
	w, err := NewWorld(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	staged := func() int64 { return w.Metrics().Snapshot().StagedBytes }
	payload := bytes.Repeat([]byte{0xC3}, size)
	// The ranks take turns through these, not through messages, which
	// would move the counters under test.
	posted, sent := make(chan struct{}), make(chan struct{})
	err = w.Run(func(c mpi.Comm) error {
		buf := make([]byte, size)
		if c.Rank() == 1 {
			req, err := c.Irecv(buf, 0, 5)
			if err != nil {
				return err
			}
			close(posted)
			if _, err := req.Wait(); err != nil {
				return err
			}
			if !bytes.Equal(buf, payload) {
				return errors.New("matched-posted payload corrupt")
			}
			<-sent
			gets0, puts0 := poolActivity()
			clear(buf)
			if _, err := c.Recv(buf, 0, 6); err != nil {
				return err
			}
			gets1, puts1 := poolActivity()
			if gets1 != gets0 || puts1 != puts0+1 || !bytes.Equal(buf, payload) {
				return fmt.Errorf("consuming receive: gets %+d puts %+d, want +0 +1", gets1-gets0, puts1-puts0)
			}
			return nil
		}
		<-posted
		gets0, puts0 := poolActivity()
		staged0 := staged()
		if err := c.Send(payload, 1, 5); err != nil {
			return err
		}
		gets1, puts1 := poolActivity()
		staged1 := staged()
		if gets1 != gets0 || puts1 != puts0 || staged1 != staged0 {
			return fmt.Errorf("matched-posted send: gets %+d puts %+d staged %+d, want none",
				gets1-gets0, puts1-puts0, staged1-staged0)
		}
		if err := c.Send(payload, 1, 6); err != nil { // nothing posted: buffered
			return err
		}
		gets2, puts2 := poolActivity()
		if gets2 != gets1+1 || puts2 != puts1 || staged()-staged1 != size {
			return fmt.Errorf("buffered send: gets %+d puts %+d staged %+d, want +1 +0 +%d",
				gets2-gets1, puts2-puts1, staged()-staged1, size)
		}
		close(sent)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Metrics().Snapshot(); s.EagerSends != 2 || s.EagerRecvs != 2 || s.RdvSends != 0 {
		t.Errorf("eager sends=%d recvs=%d rendezvous sends=%d, want 2 2 0", s.EagerSends, s.EagerRecvs, s.RdvSends)
	}
}

// TestWatchdogSumsProgressShards: with every rank parked, progress
// charged to the last rank alone keeps the watchdog quiet for many times
// its deadlock interval; once that stops too, deadlock is declared. The
// ranks are parked by hand: in a world whose ranks all run here, a
// parked rank is only ever woken by another rank's own progress, so the
// state comes up only with a delivery goroutine (remote.go) — where the
// watchdog is off for other reasons.
func TestWatchdogSumsProgressShards(t *testing.T) {
	const np = 8
	w, err := NewWorld(Options{NP: np, Timeout: 20 * time.Second, DeadlockAfter: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for r := range w.state {
		w.state[r].Store(1)
	}
	done, exited := make(chan struct{}), make(chan struct{})
	defer close(done)
	go func() {
		defer close(exited)
		w.watchdog(done)
	}()
	for end := time.Now().Add(4 * w.deadlock); time.Now().Before(end); time.Sleep(time.Millisecond) {
		w.progressed(np - 1)
	}
	if w.isAborted() {
		t.Fatalf("declared dead while rank %d made progress: %v", np-1, w.abortError())
	}
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("no deadlock declared after the last rank stopped too")
	}
	if err := w.abortError(); !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("want mpi.ErrDeadlock, got %v", err)
	}
}

// TestCreditWindowPerSenderWorldRank: three senders overrun one
// receiver's window of 2. Each is held to its own two buffered messages
// and the rest go zero-copy — on the world communicator, and on a Split
// child whose comm ranks are not its world ranks (the account is kept by
// world rank).
func TestCreditWindowPerSenderWorldRank(t *testing.T) {
	const (
		np     = 4
		window = 2
		msgs   = 5
		size   = 32
	)
	opts := testOpts(np)
	opts.EagerLimit, opts.EagerCredits = 1<<10, window
	w, err := NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	buffered := func() []int32 {
		ep := w.eps[0]
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return append([]int32(nil), ep.eagerBuffered...)
	}
	// overrun has every rank of c but rank 0 issue msgs sends to rank 0
	// before rank 0 receives any, and rank 0 compare its credit account
	// with want. issued is how rank 0 learns the sends are all out.
	overrun := func(c mpi.Comm, issued *sync.WaitGroup, want []int32) error {
		if c.Rank() != 0 {
			reqs := make([]mpi.Request, msgs)
			for i := range reqs {
				var err error
				if reqs[i], err = c.Isend(bytes.Repeat([]byte{byte(c.Rank())}, size), 0, i); err != nil {
					return err
				}
			}
			issued.Done()
			_, err := mpi.WaitAll(reqs...)
			return err
		}
		issued.Wait()
		if got := buffered(); !slices.Equal(got, want) {
			return fmt.Errorf("buffered per sender world rank = %v, want %v", got, want)
		}
		buf := make([]byte, size)
		for src := 1; src < c.Size(); src++ {
			for i := 0; i < msgs; i++ {
				if _, err := c.Recv(buf, src, i); err != nil {
					return err
				}
				if buf[0] != byte(src) {
					return fmt.Errorf("message %d from %d carries %d", i, src, buf[0])
				}
			}
		}
		if got := buffered(); !slices.Equal(got, make([]int32, np)) {
			return fmt.Errorf("buffered after draining = %v, want none", got)
		}
		return nil
	}
	var worldIssued, childIssued sync.WaitGroup
	worldIssued.Add(np - 1)
	childIssued.Add(np - 2)
	err = w.Run(func(c mpi.Comm) error {
		if err := overrun(c, &worldIssued, []int32{0, window, window, window}); err != nil {
			return fmt.Errorf("world: %w", err)
		}
		color := 0
		if c.Rank() == 1 {
			color = mpi.Undefined
		}
		child, err := c.Split(color, 0) // world ranks 0, 2, 3 as child ranks 0, 1, 2
		if err != nil || child == nil {
			return err
		}
		if err := overrun(child, &childIssued, []int32{0, 0, window, window}); err != nil {
			return fmt.Errorf("split child: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eager := int64((np - 1 + np - 2) * window)
	all := int64((np - 1 + np - 2) * msgs)
	s := w.Metrics().Snapshot()
	// Split's own handshake is eager traffic too; the zero-copy count is
	// the overrun's alone.
	if s.RdvSends != all-eager {
		t.Errorf("zero-copy sends = %d, want the %d the windows refused", s.RdvSends, all-eager)
	}
	// Rank 0's queue held every world-phase message at once.
	if s.ArrivalQueueMax != int64((np-1)*msgs) {
		t.Errorf("arrival queue high-water = %d, want %d", s.ArrivalQueueMax, (np-1)*msgs)
	}
}
