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
// and takes nothing from bufpool, a staged tiny message travels inside
// its envelope and is the engine's own copy, the watchdog reads every rank's
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
// send with no receive posted stages len(buf) bytes at every size. Only
// a payload above inlinePayload takes a bufpool buffer, which the
// receive that consumes it gives back; one that fits travels inside its
// envelope and neither takes nor returns one.
func TestMatchedPostedEagerSendCopiesOnce(t *testing.T) {
	for _, size := range []int{64, inlinePayload, inlinePayload + 1, 1000} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			var pooled int64 // bufpool buffers one staged message takes
			if size > inlinePayload {
				pooled = 1
			}
			w, err := NewWorld(testOpts(2))
			if err != nil {
				t.Fatal(err)
			}
			staged := func() int64 { return w.metrics.Snapshot().StagedBytes }
			payload := bytes.Repeat([]byte{0xC3}, size)
			// The ranks take turns through these, not through messages,
			// which would move the counters under test.
			posted, sent := make(chan struct{}), make(chan struct{})
			err = w.Run(func(c mpi.Comm) error {
				buf := make([]byte, size)
				if c.Rank() == 1 {
					req := irecv(c, buf, 0, 5)
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
					if gets1 != gets0 || puts1 != puts0+pooled || !bytes.Equal(buf, payload) {
						return fmt.Errorf("consuming receive: gets %+d puts %+d, want +0 +%d", gets1-gets0, puts1-puts0, pooled)
					}
					return nil
				}
				// Closed however rank 0 returns: a rank 1 still waiting
				// on it would hold the run open.
				defer close(sent)
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
				if gets2 != gets1+pooled || puts2 != puts1 || staged()-staged1 != int64(size) {
					return fmt.Errorf("buffered send: gets %+d puts %+d staged %+d, want +%d +0 +%d",
						gets2-gets1, puts2-puts1, staged()-staged1, pooled, size)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if s := w.metrics.Snapshot(); s.EagerSends != 2 || s.EagerRecvs != 2 || s.RdvSends != 0 {
				t.Errorf("eager sends=%d recvs=%d rendezvous sends=%d, want 2 2 0", s.EagerSends, s.EagerRecvs, s.RdvSends)
			}
		})
	}
}

// TestInlineStagedPayloadIsTheEngines: a payload staged inside its
// envelope is the engine's copy. The sender scribbles its buffer as soon
// as Send returns; messages of several sizes, all queued before the
// first is consumed, arrive with exact bytes and counts and nothing of a
// recycled envelope's earlier, longer payload; a truncating receive
// sees the inline message as it sees any other.
func TestInlineStagedPayloadIsTheEngines(t *testing.T) {
	const (
		cut      = 200 // the size of the message the truncating receive cuts
		truncTag = 99
		short    = 100 // the truncating receive's buffer
	)
	sizes := []int{inlinePayload, cut, 1, 0}
	pattern := func(tag, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(tag*31 + i + 1)
		}
		return b
	}
	w, err := NewWorld(testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	err = w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			defer close(queued) // on an early error too, or rank 1 waits forever
			out := make([]byte, inlinePayload)
			send := func(tag, n int) error {
				copy(out, pattern(tag, n))
				err := c.Send(out[:n], 1, tag)
				for i := range out { // the engine's copy must not see this
					out[i] = 0xEE
				}
				return err
			}
			// Two rounds: the second's envelopes are likely the first's,
			// recycled with their payloads still in them.
			for round := 0; round < 2; round++ {
				for i, n := range sizes {
					if err := send(round*len(sizes)+i, n); err != nil {
						return err
					}
				}
			}
			return send(truncTag, cut)
		}
		<-queued
		in := make([]byte, inlinePayload)
		for round := 0; round < 2; round++ {
			for i, n := range sizes {
				tag := round*len(sizes) + i
				for j := range in {
					in[j] = 0x5A
				}
				st, err := c.Recv(in, 0, tag)
				if err != nil {
					return err
				}
				if st.Count != n || !bytes.Equal(in[:n], pattern(tag, n)) {
					return fmt.Errorf("tag %d: Count %d, bytes %x, want %d bytes %x", tag, st.Count, in[:st.Count], n, pattern(tag, n))
				}
				if j := slices.IndexFunc(in[n:], func(b byte) bool { return b != 0x5A }); j >= 0 {
					return fmt.Errorf("tag %d: %d-byte message wrote byte %d of the buffer", tag, n, n+j)
				}
			}
		}
		trunc := make([]byte, short)
		if _, err := c.Recv(trunc, 0, truncTag); !errors.Is(err, mpi.ErrTruncate) {
			return fmt.Errorf("%d-byte message into %d bytes: err %v, want mpi.ErrTruncate", cut, short, err)
		}
		if want := pattern(truncTag, cut)[:short]; !bytes.Equal(trunc, want) {
			return fmt.Errorf("truncated receive delivered %x, want %x", trunc, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.metrics.Snapshot()
	if want := int64(2*len(sizes) + 1); s.EagerSends != want || s.EagerRecvs != want || s.RdvSends != 0 {
		t.Errorf("eager sends=%d recvs=%d rendezvous sends=%d, want %d %d 0", s.EagerSends, s.EagerRecvs, s.RdvSends, want, want)
	}
	if want := int64(2*(inlinePayload+cut+1) + cut); s.StagedBytes != want {
		t.Errorf("staged bytes = %d, want %d", s.StagedBytes, want)
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
	// with want. issued is how rank 0 learns the sends are all out;
	// checked holds the senders until rank 0 has read its drained
	// account, which their next messages (Split's) would otherwise charge.
	overrun := func(c mpi.Comm, issued *sync.WaitGroup, checked chan struct{}, want []int32) error {
		if c.Rank() != 0 {
			reqs := make([]*request, msgs)
			for i := range reqs {
				reqs[i] = isend(c, bytes.Repeat([]byte{byte(c.Rank())}, size), 0, i)
			}
			issued.Done()
			err := waitAll(reqs)
			<-checked
			return err
		}
		defer close(checked)
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
	worldChecked, childChecked := make(chan struct{}), make(chan struct{})
	worldIssued.Add(np - 1)
	childIssued.Add(np - 2)
	err = w.Run(func(c mpi.Comm) error {
		if err := overrun(c, &worldIssued, worldChecked, []int32{0, window, window, window}); err != nil {
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
		if err := overrun(child, &childIssued, childChecked, []int32{0, 0, window, window}); err != nil {
			return fmt.Errorf("split child: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eager := int64((np - 1 + np - 2) * window)
	all := int64((np - 1 + np - 2) * msgs)
	s := w.metrics.Snapshot()
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
