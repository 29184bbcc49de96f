package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestLargeDeliveryHandsOffItsCore runs one local delivery around the
// hand-off floor down each completion path that yields: the direct one,
// a send meeting its posted receive, and the zero-copy one, a receive
// taking a parked send's envelope. It runs on both executors at one and
// two cores, with the woken peer parked and, where a second rank can
// run beside the copier, busy instead. Every delivery must arrive byte
// for byte and the run end clean; the copier must yield exactly when
// the copy reached yieldFloor and its peer was parked, and only after
// the copy landed.
func TestLargeDeliveryHandsOffItsCore(t *testing.T) {
	sizes := []int{yieldFloor - 1, yieldFloor, yieldFloor + 1, 4<<20 + 3}
	execs := []struct {
		name string
		opts Options
	}{
		{"goroutine", Options{}},
		{"pooled:1", Options{Executor: Pooled, MaxWorkers: 1}},
	}
	var (
		yields  atomic.Int32
		early   atomic.Bool
		dst     []byte
		payload []byte
	)
	yield = func() {
		if !bytes.Equal(dst, payload) {
			early.Store(true)
		}
		yields.Add(1)
		runtime.Gosched()
	}
	defer func() { yield = runtime.Gosched }()

	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, ex := range execs {
			for _, path := range []string{"direct", "zerocopy"} {
				for _, parked := range []bool{true, false} {
					// With one slot the peer of a delivery cannot be
					// running: it is parked or queued for the slot.
					if !parked && ex.opts.Executor == Pooled {
						continue
					}
					for _, n := range sizes {
						name := fmt.Sprintf("procs=%d/%s/%s/parked=%v/n=%d", procs, ex.name, path, parked, n)
						t.Run(name, func(t *testing.T) {
							payload = make([]byte, n)
							for i := range payload {
								payload[i] = byte(i*7 + i>>8)
							}
							dst = make([]byte, n)
							yields.Store(0)
							early.Store(false)
							opts := ex.opts
							opts.NP, opts.EagerLimit, opts.DeadlockAfter = 2, 1<<10, time.Second
							if err := RunWith(opts, deliverOnce(path, parked, payload, dst)); err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(dst, payload) {
								t.Fatal("delivered bytes differ from the payload")
							}
							if early.Load() {
								t.Fatal("yielded before the copy landed")
							}
							got := yields.Load()
							switch {
							case n < yieldFloor || !parked:
								if got != 0 {
									t.Fatalf("yielded %d times, want none", got)
								}
							case procs == 1 || ex.opts.Executor == Pooled:
								// The woken peer cannot run before the
								// copier gives up its core or slot.
								if got != 1 {
									t.Fatalf("yielded %d times, want once", got)
								}
							case got > 1:
								// On two cores the peer may be picked up
								// before the copier looks.
								t.Fatalf("yielded %d times, want at most once", got)
							}
						})
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// deliverOnce returns the two-rank body that moves payload from rank 0
// into rank 1's dst down path ("direct": the receive is posted first;
// "zerocopy": the send is), with the rank whose operation completes
// second — the one the copier wakes — parked in Wait or, with parked
// false, spinning until its request completes.
func deliverOnce(path string, parked bool, payload, dst []byte) func(mpi.Comm) error {
	const tag, ready = 5, 6
	return func(c mpi.Comm) error {
		w := c.(*comm).w
		waitParked := func(rank int) {
			for w.state[rank].Load() != 1 {
				runtime.Gosched()
			}
		}
		var req *request
		switch {
		case path == "direct" && c.Rank() == 1:
			req = irecv(c, dst, 0, tag)
			if err := c.Send(nil, 0, ready); err != nil {
				return err
			}
			if !parked {
				for len(req.pr.done) == 0 {
					runtime.Gosched()
				}
			}
		case path == "direct":
			if _, err := c.Recv(nil, 1, ready); err != nil {
				return err
			}
			if parked {
				waitParked(1)
			}
			if req = isend(c, payload, 1, tag); !req.complete {
				return errors.New("send to a posted receive was not delivered on the spot")
			}
		case c.Rank() == 0:
			if req = isend(c, payload, 1, tag); req.rdv == nil {
				return errors.New("send ahead of its receive left no zero-copy envelope")
			}
			if err := c.Send(nil, 1, ready); err != nil {
				return err
			}
			if !parked {
				for len(req.rdv.done) == 0 {
					runtime.Gosched()
				}
			}
		default:
			if _, err := c.Recv(nil, 0, ready); err != nil {
				return err
			}
			if parked {
				waitParked(0)
			}
			req = irecv(c, dst, 0, tag)
		}
		st, err := req.Wait()
		if err == nil && st.Count != len(payload) {
			err = fmt.Errorf("rank %d: status count %d, want %d", c.Rank(), st.Count, len(payload))
		}
		return err
	}
}
