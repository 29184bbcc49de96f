package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/topology"
)

// testOpts returns options with short watchdog windows for fast failures.
func testOpts(np int) Options {
	return Options{NP: np, Timeout: 20 * time.Second, DeadlockAfter: 200 * time.Millisecond}
}

func TestSendRecvRoundTrip(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send([]byte("hello"), 1, 7)
		case 1:
			buf := make([]byte, 16)
			st, err := c.Recv(buf, 0, 7)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 5 {
				return fmt.Errorf("status = %+v", st)
			}
			if string(buf[:st.Count]) != "hello" {
				return fmt.Errorf("payload = %q", buf[:st.Count])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousRoundTrip(t *testing.T) {
	// Force rendezvous for everything; data must still arrive intact and
	// the sender's buffer must be reusable after Send returns.
	payload := bytes.Repeat([]byte{0xAB}, 1<<16)
	err := RunWith(Options{NP: 2, EagerLimit: -1, DeadlockAfter: 200 * time.Millisecond}, func(c mpi.Comm) error {
		switch c.Rank() {
		case 0:
			buf := append([]byte(nil), payload...)
			if err := c.Send(buf, 1, 1); err != nil {
				return err
			}
			// Overwrite after Send returns: receiver must have its copy.
			for i := range buf {
				buf[i] = 0
			}
		case 1:
			time.Sleep(10 * time.Millisecond) // let the sender block first
			buf := make([]byte, len(payload))
			st, err := c.Recv(buf, 0, 1)
			if err != nil {
				return err
			}
			if st.Count != len(payload) || !bytes.Equal(buf, payload) {
				return fmt.Errorf("rendezvous payload corrupted (count=%d)", st.Count)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerBufferIndependence(t *testing.T) {
	// Eager send must copy: mutating the sender buffer immediately after
	// Send returns must not corrupt the message.
	err := Run(2, func(c mpi.Comm) error {
		switch c.Rank() {
		case 0:
			buf := []byte{1, 2, 3, 4}
			if err := c.Send(buf, 1, 1); err != nil {
				return err
			}
			buf[0] = 99
		case 1:
			time.Sleep(10 * time.Millisecond) // ensure the message waits in the queue
			buf := make([]byte, 4)
			if _, err := c.Recv(buf, 0, 1); err != nil {
				return err
			}
			if buf[0] != 1 {
				return fmt.Errorf("eager payload corrupted: %v", buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteMessage(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(nil, 1, 3)
		}
		st, err := c.Recv(nil, 0, 3)
		if err != nil {
			return err
		}
		if st.Count != 0 || st.Source != 0 || st.Tag != 3 {
			return fmt.Errorf("status = %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Two messages with different tags, received in reverse order.
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send([]byte{1}, 1, 10); err != nil {
				return err
			}
			return c.Send([]byte{2}, 1, 20)
		}
		buf := make([]byte, 1)
		if _, err := c.Recv(buf, 0, 20); err != nil {
			return err
		}
		if buf[0] != 2 {
			return fmt.Errorf("tag 20 delivered %d", buf[0])
		}
		if _, err := c.Recv(buf, 0, 10); err != nil {
			return err
		}
		if buf[0] != 1 {
			return fmt.Errorf("tag 10 delivered %d", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c mpi.Comm) error {
		switch c.Rank() {
		case 1, 2:
			return c.Send([]byte{byte(c.Rank())}, 0, c.Rank()*100)
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, 1)
				st, err := c.Recv(buf, mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return err
				}
				if int(buf[0]) != st.Source || st.Tag != st.Source*100 {
					return fmt.Errorf("wildcard status mismatch: %+v payload %d", st, buf[0])
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources seen: %v", seen)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseNonOvertaking(t *testing.T) {
	// 100 same-tag messages from 0 to 1 must arrive in order, mixing
	// eager and rendezvous sizes.
	const n = 100
	err := RunWith(Options{NP: 2, EagerLimit: 64, DeadlockAfter: time.Second}, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				size := 1
				if i%3 == 0 {
					size = 128 // rendezvous
				}
				buf := bytes.Repeat([]byte{byte(i)}, size)
				if err := c.Send(buf, 1, 5); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			buf := make([]byte, 128)
			st, err := c.Recv(buf, 0, 5)
			if err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d out of order: got %d (count %d)", i, buf[0], st.Count)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncationError(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte{1, 2, 3, 4}, 1, 1)
		}
		buf := make([]byte, 2)
		_, err := c.Recv(buf, 0, 1)
		if !errors.Is(err, mpi.ErrTruncate) {
			return fmt.Errorf("want ErrTruncate, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRingAllSizes(t *testing.T) {
	// A ring of Sendrecvs must not deadlock, eager or rendezvous.
	for _, eager := range []int{0, -1} {
		for _, np := range []int{2, 3, 5, 8} {
			opts := testOpts(np)
			opts.EagerLimit = eager
			err := RunWith(opts, func(c mpi.Comm) error {
				right := (c.Rank() + 1) % c.Size()
				left := (c.Rank() + c.Size() - 1) % c.Size()
				out := []byte{byte(c.Rank())}
				in := make([]byte, 1)
				if _, err := c.Sendrecv(out, right, 9, in, left, 9); err != nil {
					return err
				}
				if in[0] != byte(left) {
					return fmt.Errorf("ring got %d want %d", in[0], left)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("np=%d eager=%d: %v", np, eager, err)
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	start := time.Now()
	err := RunWith(testOpts(2), func(c mpi.Comm) error {
		// Head-to-head: both ranks receive first.
		buf := make([]byte, 1)
		_, err := c.Recv(buf, 1-c.Rank(), 1)
		return err
	})
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("deadlock detection took too long: %v", time.Since(start))
	}
}

func TestDeadlockDetectionRendezvousSend(t *testing.T) {
	// A rendezvous send with no receiver must be detected once the other
	// ranks finish.
	opts := testOpts(2)
	opts.EagerLimit = -1
	err := RunWith(opts, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(make([]byte, 1024), 1, 1)
		}
		return nil // rank 1 never receives
	})
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestPanicRecovery(t *testing.T) {
	err := RunWith(testOpts(2), func(c mpi.Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 blocks; the panic must abort it.
		buf := make([]byte, 1)
		_, err := c.Recv(buf, 1, 1)
		return err
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("panicked")) {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestRankErrorAbortsWorld(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := RunWith(testOpts(2), func(c mpi.Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		buf := make([]byte, 1)
		_, err := c.Recv(buf, 1, 1)
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
}

func TestUnconsumedMessageStrictness(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte{1}, 1, 1) // eager: completes immediately
		}
		return nil // rank 1 never receives
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("unconsumed")) {
		t.Fatalf("want unconsumed-message error, got %v", err)
	}
}

func TestWorldReuseAfterCleanRun(t *testing.T) {
	w, err := NewWorld(Options{NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Reusable() {
		t.Fatal("fresh world must be reusable")
	}
	for run := 0; run < 3; run++ {
		payload := byte(10 + run)
		err := w.Run(func(c mpi.Comm) error {
			if c.Rank() == 0 {
				return c.Send([]byte{payload}, 1, 1)
			}
			buf := make([]byte, 1)
			if _, err := c.Recv(buf, 0, 1); err != nil {
				return err
			}
			if buf[0] != payload {
				return fmt.Errorf("run %d: got %d, want %d", run, buf[0], payload)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d on reused world: %v", run, err)
		}
		if !w.Reusable() {
			t.Fatalf("world not reusable after clean run %d", run)
		}
	}
}

func TestWorldSpentAfterAbort(t *testing.T) {
	w, err := NewWorld(Options{NP: 2, DeadlockAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("rank failure")
	if err := w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return sentinel
		}
		_, err := c.Recv(make([]byte, 1), 0, 1)
		return err
	}); !errors.Is(err, sentinel) {
		t.Fatalf("aborting run: %v", err)
	}
	if w.Reusable() {
		t.Fatal("aborted world must not be reusable")
	}
	err = w.Run(func(mpi.Comm) error { return nil })
	if err == nil || !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("Run on spent world = %v, want wrapped mpi.ErrAborted", err)
	}
}

func TestValidationErrors(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(nil, 5, 1); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("peer range: got %v", err)
		}
		if err := c.Send(nil, 1, -3); !errors.Is(err, mpi.ErrTag) {
			return fmt.Errorf("tag range: got %v", err)
		}
		if err := c.Send(nil, 0, 1); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("self send: got %v", err)
		}
		if _, err := c.Recv(nil, mpi.AnySource, -9); !errors.Is(err, mpi.ErrTag) {
			return fmt.Errorf("recv tag: got %v", err)
		}
		if _, err := c.Sendrecv(nil, 9, 1, nil, 0, 1); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("sendrecv peer: got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Options{NP: 0}); err == nil {
		t.Fatal("NP=0 must fail")
	}
	if _, err := NewWorld(Options{NP: 4, Topology: topology.SingleNode(3)}); err == nil {
		t.Fatal("topology size mismatch must fail")
	}
}

func TestCommTopologyDefaults(t *testing.T) {
	err := RunWith(Options{NP: 4}, func(c mpi.Comm) error {
		topo := c.Topology()
		if topo.NP() != 4 || topo.NumNodes() != 1 {
			return fmt.Errorf("default topology = %v", topo)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommTopologyBlocked(t *testing.T) {
	topo := topology.Blocked(6, 2)
	err := RunWith(Options{NP: 6, Topology: topo}, func(c mpi.Comm) error {
		if c.Topology().NumNodes() != 3 {
			return fmt.Errorf("nodes = %d", c.Topology().NumNodes())
		}
		if c.Topology().NodeOf(4) != 2 {
			return fmt.Errorf("rank 4 on node %d", c.Topology().NodeOf(4))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	err := RunWith(testOpts(5), func(c mpi.Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		wantSize := 3 // evens: 0,2,4
		if c.Rank()%2 == 1 {
			wantSize = 2 // odds: 1,3
		}
		if sub.Size() != wantSize {
			return fmt.Errorf("rank %d: sub size %d want %d", c.Rank(), sub.Size(), wantSize)
		}
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("rank %d: sub rank %d want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// The new communicator must be usable: ring exchange inside it.
		if sub.Size() > 1 {
			right := (sub.Rank() + 1) % sub.Size()
			left := (sub.Rank() + sub.Size() - 1) % sub.Size()
			out := []byte{byte(sub.Rank())}
			in := make([]byte, 1)
			if _, err := sub.Sendrecv(out, right, 2, in, left, 2); err != nil {
				return err
			}
			if in[0] != byte(left) {
				return fmt.Errorf("sub-comm ring got %d want %d", in[0], left)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	err := RunWith(testOpts(4), func(c mpi.Comm) error {
		// All same color; key reverses the order.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		want := c.Size() - 1 - c.Rank()
		if sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank %d want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefined(t *testing.T) {
	err := RunWith(testOpts(4), func(c mpi.Comm) error {
		color := 0
		if c.Rank() == 2 {
			color = mpi.Undefined
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			if sub != nil {
				return errors.New("undefined color must yield nil comm")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			return fmt.Errorf("sub = %v", sub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitContextIsolation(t *testing.T) {
	// Same-tag traffic in parent and child communicators must not mix.
	err := RunWith(testOpts(2), func(c mpi.Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		const tag = 11
		if c.Rank() == 0 {
			if err := c.Send([]byte{1}, 1, tag); err != nil { // parent ctx
				return err
			}
			return sub.Send([]byte{2}, 1, tag) // child ctx
		}
		buf := make([]byte, 1)
		// Receive from the child context first: must get the child's
		// payload even though the parent message arrived earlier.
		if _, err := sub.Recv(buf, 0, tag); err != nil {
			return err
		}
		if buf[0] != 2 {
			return fmt.Errorf("child ctx delivered %d", buf[0])
		}
		if _, err := c.Recv(buf, 0, tag); err != nil {
			return err
		}
		if buf[0] != 1 {
			return fmt.Errorf("parent ctx delivered %d", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitCollectivesKeepTheirStreams interleaves collectives on a
// communicator and on its Split child, a ring exchange on one reserved
// tag each, every one issued before the other's messages are taken. The
// rank's stream cache follows the communicator it last used, so each
// switch writes one communicator's stream back and reads the other's:
// both must keep counting from where they were, across the wrap, and no
// message may land in the other's collective.
func TestSplitCollectivesKeepTheirStreams(t *testing.T) {
	const np, rounds = 4, mpi.NumTagStreams + 10
	err := RunWith(testOpts(np), func(c mpi.Comm) error {
		// The child holds every rank, in reverse order: its ring runs
		// against the parent's.
		sub, err := c.Split(0, np-1-c.Rank())
		if err != nil {
			return err
		}
		comms := []mpi.Comm{c, sub}
		var first [2]int
		for round := 0; round < rounds; round++ {
			var sends [2]*request
			for i, cm := range comms {
				s := cm.NextTagStream()
				if round == 0 {
					first[i] = s
				} else if want := (first[i] + round) % mpi.NumTagStreams; s != want {
					return fmt.Errorf("comm %d round %d: stream %d, want %d", i, round, s, want)
				}
				to := (cm.Rank() + 1) % np
				sends[i] = isend(cm, []byte{byte(i), byte(round)}, to, mpi.CollTagBase)
			}
			for i := len(comms) - 1; i >= 0; i-- {
				cm := comms[i]
				buf := make([]byte, 2)
				if _, err := cm.Recv(buf, (cm.Rank()+np-1)%np, mpi.CollTagBase); err != nil {
					return err
				}
				if buf[0] != byte(i) || buf[1] != byte(round) {
					return fmt.Errorf("comm %d round %d received comm %d round %d's message", i, round, buf[0], buf[1])
				}
			}
			if err := waitAll(sends[:]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitTopologySubset(t *testing.T) {
	topo := topology.Blocked(4, 2) // nodes: {0,1}, {2,3}
	opts := testOpts(4)
	opts.Topology = topo
	err := RunWith(opts, func(c mpi.Comm) error {
		// Group ranks 0 and 2 (different nodes) and 1 and 3.
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Topology().NumNodes() != 2 {
			return fmt.Errorf("sub topology = %v", sub.Topology())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksRandomExchange(t *testing.T) {
	// Stress: every rank sends a token to a random peer (deterministic
	// seed per rank) and receives exactly the tokens addressed to it.
	const np = 32
	counts := make([]int64, np)
	// Precompute destinations so receivers know how many to expect.
	dests := make([]int, np)
	rng := rand.New(rand.NewSource(42))
	for r := 0; r < np; r++ {
		d := rng.Intn(np - 1)
		if d >= r {
			d++
		}
		dests[r] = d
		atomic.AddInt64(&counts[d], 1)
	}
	err := RunWith(testOpts(np), func(c mpi.Comm) error {
		me := c.Rank()
		if err := c.Send([]byte{byte(me)}, dests[me], 1); err != nil {
			return err
		}
		for i := int64(0); i < counts[me]; i++ {
			buf := make([]byte, 1)
			st, err := c.Recv(buf, mpi.AnySource, 1)
			if err != nil {
				return err
			}
			if dests[buf[0]] != me || st.Source != int(buf[0]) {
				return fmt.Errorf("rank %d got stray token %d from %d", me, buf[0], st.Source)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortUnblocksEverything(t *testing.T) {
	// Many ranks blocked in receives; one fails: all must return quickly.
	start := time.Now()
	err := RunWith(testOpts(8), func(c mpi.Comm) error {
		if c.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			return errors.New("fail fast")
		}
		buf := make([]byte, 1)
		_, err := c.Recv(buf, 0, 1)
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("abort too slow: %v", time.Since(start))
	}
}

func TestEncodeDecodeInts(t *testing.T) {
	vals := []int{0, 1, -1, 1 << 40, -(1 << 40), mpi.Undefined}
	b := encodeInts(vals...)
	got := decodeInts(b, len(vals))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("roundtrip[%d] = %d want %d", i, got[i], vals[i])
		}
	}
}

func TestRendezvousTruncation(t *testing.T) {
	// Truncation on the rendezvous path: the receiver errors, the sender
	// completes normally (its buffer was consumed as far as it fit).
	opts := testOpts(2)
	opts.EagerLimit = -1
	err := RunWith(opts, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(make([]byte, 1024), 1, 1)
		}
		buf := make([]byte, 100)
		_, err := c.Recv(buf, 0, 1)
		if !errors.Is(err, mpi.ErrTruncate) {
			return fmt.Errorf("want truncate, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvWildcards(t *testing.T) {
	err := RunWith(testOpts(3), func(c mpi.Comm) error {
		if c.Rank() != 0 {
			return c.Send([]byte{byte(c.Rank())}, 0, 40+c.Rank())
		}
		got := map[int]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			st, err := irecv(c, buf, mpi.AnySource, mpi.AnyTag).Wait()
			if err != nil {
				return err
			}
			if st.Tag != 40+st.Source || int(buf[0]) != st.Source {
				return fmt.Errorf("wildcard irecv: %+v payload %d", st, buf[0])
			}
			got[st.Source] = true
		}
		if !got[1] || !got[2] {
			return fmt.Errorf("sources: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitAllUndefined(t *testing.T) {
	err := RunWith(testOpts(3), func(c mpi.Comm) error {
		sub, err := c.Split(mpi.Undefined, 0)
		if err != nil {
			return err
		}
		if sub != nil {
			return errors.New("all-undefined split must return nil everywhere")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorRejected(t *testing.T) {
	err := RunWith(testOpts(1), func(c mpi.Comm) error {
		if _, err := c.Split(-5, 0); err == nil {
			return errors.New("negative non-Undefined color must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerLimitBoundaryExact(t *testing.T) {
	// A payload exactly at the eager limit is eager (<=); one byte more
	// is rendezvous. Both must deliver correctly back to back.
	opts := testOpts(2)
	opts.EagerLimit = 128
	err := RunWith(opts, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(bytes.Repeat([]byte{1}, 128), 1, 1); err != nil {
				return err
			}
			return c.Send(bytes.Repeat([]byte{2}, 129), 1, 1)
		}
		buf := make([]byte, 129)
		st1, err := c.Recv(buf, 0, 1)
		if err != nil || st1.Count != 128 || buf[0] != 1 {
			return fmt.Errorf("eager boundary: %+v %v", st1, err)
		}
		st2, err := c.Recv(buf, 0, 1)
		if err != nil || st2.Count != 129 || buf[0] != 2 {
			return fmt.Errorf("rendezvous boundary: %+v %v", st2, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
