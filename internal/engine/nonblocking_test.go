package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
)

// isend and irecv start a send or post a receive on c as Send and Recv
// do, and hand back its request instead of waiting on it: how the tests
// stage a matching state — a receive posted before its message arrives
// or after, a wildcard claim, sends queued past the credit window or
// behind one another, a receive pending when the world ends.
func isend(c mpi.Comm, buf []byte, to, tag int) *request {
	cc := c.(*comm)
	r := new(request)
	cc.w.isend(r, cc.ctx, cc.rank, cc.worldRank(), cc.worldRankOf(to), buf, cc.streamTag(tag), cc.cancel, nil)
	return r
}

func irecv(c mpi.Comm, buf []byte, from, tag int) *request {
	cc := c.(*comm)
	r := new(request)
	cc.w.irecv(r, cc.ctx, cc.worldRank(), buf, from, cc.streamTag(tag), cc.cancel)
	return r
}

// waitAll waits on every request and returns the first error.
func waitAll(reqs []*request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func TestIsendIrecvRoundTrip(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			st, err := isend(c, []byte("async"), 1, 4).Wait()
			if err != nil {
				return err
			}
			if st.Count != 5 {
				return fmt.Errorf("send status = %+v", st)
			}
			return nil
		}
		buf := make([]byte, 8)
		req := irecv(c, buf, 0, 4)
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Count != 5 || string(buf[:5]) != "async" {
			return fmt.Errorf("recv %q status %+v", buf[:st.Count], st)
		}
		// Wait is idempotent.
		st2, err := req.Wait()
		if err != nil || st2 != st {
			return fmt.Errorf("second Wait: %+v %v", st2, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendNonOvertaking(t *testing.T) {
	// Multiple outstanding isends on one channel, mixing eager and
	// zero-copy (rendezvous-size) messages, must arrive in issue order.
	const k = 12
	err := RunWith(Options{NP: 2, EagerLimit: 64, DeadlockAfter: time.Second}, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			bufs := make([][]byte, k)
			reqs := make([]*request, k)
			for i := 0; i < k; i++ {
				size := 8
				if i%2 == 1 {
					size = 256 // beyond eager: zero-copy envelope
				}
				bufs[i] = bytes.Repeat([]byte{byte(i)}, size)
				reqs[i] = isend(c, bufs[i], 1, 3)
			}
			return waitAll(reqs)
		}
		for i := 0; i < k; i++ {
			buf := make([]byte, 256)
			st, err := c.Recv(buf, 0, 3)
			if err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d out of order: first byte %d (count %d)", i, buf[0], st.Count)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvPostedBeforeSendGetsZeroCopy(t *testing.T) {
	// Posting the receive first lets a rendezvous-size isend complete
	// directly against it.
	err := RunWith(Options{NP: 2, EagerLimit: -1, DeadlockAfter: time.Second}, func(c mpi.Comm) error {
		payload := bytes.Repeat([]byte{7}, 1024)
		if c.Rank() == 1 {
			buf := make([]byte, 1024)
			req := irecv(c, buf, 0, 9)
			// Tell rank 0 the receive is posted.
			if err := c.Send(nil, 0, 1); err != nil {
				return err
			}
			st, err := req.Wait()
			if err != nil {
				return err
			}
			if st.Count != 1024 || !bytes.Equal(buf, payload) {
				return fmt.Errorf("zero-copy recv corrupt: %+v", st)
			}
			return nil
		}
		if _, err := c.Recv(nil, 1, 1); err != nil {
			return err
		}
		req := isend(c, payload, 1, 9)
		if !req.complete {
			// The posted receive existed, so the send matched instantly.
			return errors.New("isend against posted recv should complete immediately")
		}
		_, err := req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPendingRecvAcrossAbort: a receive still pending when the world
// ends completes with the end, however the rank gets to its Wait. The
// end comes as a peer's error (abort) or as the context the operation was
// bound to being cancelled; the rank waits on its receive either only
// once it has seen the end (Wait must not park for a message that cannot
// come) or before the end, parked until it.
func TestPendingRecvAcrossAbort(t *testing.T) {
	boom := errors.New("rank 1 gives up")
	for _, how := range []string{"abort", "cancel"} {
		t.Run(how, func(t *testing.T) {
			for _, late := range []bool{true, false} {
				t.Run(fmt.Sprintf("late=%v", late), func(t *testing.T) {
					ctx, cancel := context.WithCancelCause(context.Background())
					defer cancel(nil)
					posted := make(chan struct{}) // closed once the receive is pending
					start := time.Now()
					var w *World
					err := RunWith(Options{NP: 2, Timeout: 2 * time.Second, DeadlockAfter: -1}, func(c mpi.Comm) error {
						if c.Rank() == 1 {
							<-posted
							if how == "abort" {
								return boom
							}
							cancel(boom)
							return nil
						}
						w = c.(*comm).w
						req := irecv(c.WithContext(ctx), make([]byte, 1), 1, 1) // never sent
						close(posted)
						if late {
							for !closed(w.aborted) && !closed(ctx.Done()) {
								runtime.Gosched()
							}
						}
						_, err := req.Wait()
						if !errors.Is(err, mpi.ErrAborted) {
							return fmt.Errorf("pending request finished with %v, want mpi.ErrAborted", err)
						}
						return err
					})
					if !errors.Is(err, boom) {
						t.Errorf("Run returned %v, want the cause %v", err, boom)
					}
					if elapsed := time.Since(start); elapsed > time.Second {
						t.Errorf("Run took %v; Wait should see the end at once, well before the 2 s timeout", elapsed)
					}
				})
			}
		})
	}
}

func TestIsendOverflowBeyondCreditsCompletes(t *testing.T) {
	// More outstanding isends than the credit window: the overflow is
	// parked zero-copy and everything still arrives intact and in order.
	const k = 10
	err := RunWith(Options{NP: 2, EagerLimit: 1 << 10, EagerCredits: 2, DeadlockAfter: time.Second}, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			bufs := make([][]byte, k)
			reqs := make([]*request, k)
			for i := range reqs {
				bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, 64)
				reqs[i] = isend(c, bufs[i], 1, 2)
			}
			return waitAll(reqs)
		}
		time.Sleep(10 * time.Millisecond) // let the sender queue up
		for i := 0; i < k; i++ {
			buf := make([]byte, 64)
			if _, err := c.Recv(buf, 0, 2); err != nil {
				return err
			}
			if buf[0] != byte(i+1) {
				return fmt.Errorf("message %d out of order: %d", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitAllCollectsFirstError: of two receives posted before their
// messages arrive, the first is truncated; its error is the one waitAll
// reports, and the second still completes with its message.
func TestWaitAllCollectsFirstError(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Recv(nil, 1, 3); err != nil { // both receives are posted
				return err
			}
			if err := c.Send([]byte{1, 2, 3, 4}, 1, 1); err != nil {
				return err
			}
			return c.Send([]byte{5}, 1, 2)
		}
		small := make([]byte, 1) // will truncate tag 1
		ok := make([]byte, 1)
		r1 := irecv(c, small, 0, 1)
		r2 := irecv(c, ok, 0, 2)
		if err := c.Send(nil, 0, 3); err != nil {
			return err
		}
		if err := waitAll([]*request{r1, r2}); !errors.Is(err, mpi.ErrTruncate) {
			return fmt.Errorf("want truncate, got %v", err)
		}
		if st, err := r2.Wait(); err != nil || st.Count != 1 || ok[0] != 5 {
			return fmt.Errorf("second request not completed: %+v %v", st, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvStillWorksAfterRefactor(t *testing.T) {
	// Regression guard: Sendrecv (now goroutine-free) under forced
	// rendezvous in large rings.
	err := RunWith(Options{NP: 16, EagerLimit: -1, DeadlockAfter: 2 * time.Second}, func(c mpi.Comm) error {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() + c.Size() - 1) % c.Size()
		out := bytes.Repeat([]byte{byte(c.Rank())}, 4096)
		in := make([]byte, 4096)
		for step := 0; step < 5; step++ {
			if _, err := c.Sendrecv(out, right, 1, in, left, 1); err != nil {
				return err
			}
			if in[0] != byte(left) {
				return fmt.Errorf("step %d: got %d want %d", step, in[0], left)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrepostRearmsCompletedRequests is Prepost's contract on the
// engine: a request that completed comes back re-armed — the same object
// — while one still pending is left alone and replaced, and a receive
// the engine cannot post (self, out of range, wildcard, a tag outside the
// engine's range) is declined with the caller's request returned as it
// was.
func TestPrepostRearmsCompletedRequests(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			// Tag 10 goes only once rank 1 says so: its receive is still
			// pending when the next Prepost is handed it.
			for i, m := range []struct {
				b   byte
				tag int
			}{{1, 9}, {2, 9}, {3, 10}} {
				if i == 2 {
					if _, err := c.Recv(nil, 1, 11); err != nil {
						return err
					}
				}
				if err := c.Send([]byte{m.b, m.b, m.b}, 1, m.tag); err != nil {
					return err
				}
			}
			return nil
		}
		for _, bad := range []struct{ from, tag int }{{1, 9}, {2, 9}, {mpi.AnySource, 9}, {0, mpi.AnyTag}, {0, mpi.MaxTag + 1}} {
			if r, ok := c.Prepost(nil, make([]byte, 3), bad.from, bad.tag); ok || r != nil {
				return fmt.Errorf("Prepost(from=%d, tag=%d) = (%v, %v), want a decline", bad.from, bad.tag, r, ok)
			}
		}
		bufs := [3][]byte{make([]byte, 3), make([]byte, 3), make([]byte, 3)}
		r1, ok := c.Prepost(nil, bufs[0], 0, 9)
		if !ok {
			return errors.New("Prepost declined a local source")
		}
		if _, err := r1.Wait(); err != nil {
			return err
		}
		r2, _ := c.Prepost(r1, bufs[2], 0, 10)
		if r2 != r1 {
			return errors.New("a completed request was not re-armed in place")
		}
		r3, _ := c.Prepost(r2, bufs[1], 0, 9)
		if r3 == r2 {
			return errors.New("a pending request was re-armed")
		}
		if err := c.Send(nil, 0, 11); err != nil {
			return err
		}
		for _, r := range []mpi.Request{r2, r3} {
			if st, err := r.Wait(); err != nil || st.Count != 3 {
				return fmt.Errorf("receive: %+v, %v", st, err)
			}
		}
		for i, b := range bufs {
			if want := byte(i + 1); !bytes.Equal(b, []byte{want, want, want}) {
				return fmt.Errorf("message %d landed as %v", i+1, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
