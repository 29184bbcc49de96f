package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/mpi"
	"repro/internal/tune"
)

// The bound path end to end on two ranks, rank 0 sending to rank 1 over
// one edge bound the way a kept plan binds it (collective.NewPlan hands
// the edges of its ops to comm.Bind; each run engages them, and the
// executor moves every op through the binding's Move). Both executors,
// the pooled one with a single slot, where a rank that blocked anywhere
// but in harvest would keep its peer from ever running.

// boundTag is the base collective tag of the edge under test.
const boundTag = mpi.CollTagBase + 1

func boundWorlds(t *testing.T) map[string]*World {
	t.Helper()
	worlds := map[string]*World{}
	for name, opts := range map[string]Options{
		"goroutine": {},
		"pooled(1)": {Executor: Pooled, MaxWorkers: 1},
	} {
		opts.NP, opts.Timeout, opts.DeadlockAfter = 2, 20*time.Second, 100*time.Millisecond
		w, err := NewWorld(opts)
		if err != nil {
			t.Fatal(err)
		}
		worlds[name] = w
	}
	return worlds
}

// bindEdge binds c's end of the edge from rank 0 to rank 1: k messages
// per run of at most size bytes. It is edge 0 of the binding.
func bindEdge(c mpi.Comm, k, size int) mpi.Binding {
	e := mpi.Edge{Peer: 1, Tag: boundTag, Send: true, Count: k, MaxLen: size}
	if c.Rank() == 1 {
		e.Peer, e.Send = 0, false
	}
	return c.Bind([]mpi.Edge{e})
}

// move moves one message of buf on edge 0 of b: rank 0 sends it, rank 1
// receives it.
func move(c mpi.Comm, b mpi.Binding, buf []byte) (mpi.Status, error) {
	if c.Rank() == 0 {
		return b.Move(0, buf, -1, nil)
	}
	return b.Move(-1, nil, 0, buf)
}

// boundRun is one run of a kept schedule: its own tag stream, with b
// engaged.
func boundRun(c mpi.Comm, b mpi.Binding, body func() error) error {
	c.NextTagStream()
	if b == nil || !b.Engage(c) {
		return errors.New("edge not bound")
	}
	defer b.Disengage()
	return body()
}

// parked waits, on the goroutine executor, until rank is parked. (With
// one slot the caller runs only once everyone else has parked.)
func (w *World) parked(rank int) error {
	for w.slots == nil && w.state[rank].Load() != 1 {
		if w.state[rank].Load() == 2 {
			return fmt.Errorf("rank %d finished without parking", rank)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// boundPayload is message i of run r: its length and bytes differ.
func boundPayload(r, i int) []byte {
	return bytes.Repeat([]byte{byte(16*r + i + 1)}, []int{1, 64, 256}[i])
}

// TestBoundAbortWhileParked: a receiver parked on its edge returns the
// abort of a peer's failure.
func TestBoundAbortWhileParked(t *testing.T) {
	boom := errors.New("boom")
	for name, w := range boundWorlds(t) {
		var recvErr error
		err := w.Run(func(c mpi.Comm) error {
			b := bindEdge(c, 1, 8)
			if c.Rank() == 0 {
				// Rank 1 is on its way to the edge once this arrives.
				if _, err := c.Recv(make([]byte, 1), 1, 5); err != nil {
					return err
				}
				if err := w.parked(1); err != nil {
					return err
				}
				return boom
			}
			if err := c.Send([]byte{1}, 0, 5); err != nil {
				return err
			}
			return boundRun(c, b, func() error {
				_, recvErr = move(c, b, make([]byte, 8))
				return recvErr
			})
		})
		if !errors.Is(err, boom) || !errors.Is(recvErr, mpi.ErrAborted) {
			t.Errorf("%s: run %v, parked receive %v; want the failure, and the abort", name, err, recvErr)
		}
	}
}

// TestBoundCancelWhileParked: a bound wait sees its context's
// cancellation.
func TestBoundCancelWhileParked(t *testing.T) {
	for name, w := range boundWorlds(t) {
		ctx, cancel := context.WithCancel(context.Background())
		var recvErr error
		err := w.RunContext(ctx, func(c mpi.Comm) error {
			b := bindEdge(c, 1, 8)
			if c.Rank() == 0 {
				if _, err := c.Recv(make([]byte, 1), 1, 5); err != nil {
					return err
				}
				err := w.parked(1)
				cancel()
				return err
			}
			if err := c.Send([]byte{1}, 0, 5); err != nil {
				return err
			}
			return boundRun(c, b, func() error {
				_, recvErr = move(c, b, make([]byte, 8))
				return recvErr
			})
		})
		cancel()
		if !errors.Is(err, context.Canceled) || !errors.Is(recvErr, context.Canceled) || !errors.Is(recvErr, mpi.ErrAborted) {
			t.Errorf("%s: run %v, parked receive %v; want both canceled", name, err, recvErr)
		}
	}
}

// TestBoundSenderRunsAhead: a sender four runs into a schedule whose
// receiver starts late fills the edge's cells with its first two runs
// and waits for the receiver to free them; every run arrives intact, is
// counted once, and never touches the queues.
func TestBoundSenderRunsAhead(t *testing.T) {
	const runs, k = 4, 3
	for name, w := range boundWorlds(t) {
		err := w.Run(func(c mpi.Comm) error {
			b := bindEdge(c, k, 256)
			for r := 0; r < runs; r++ {
				err := boundRun(c, b, func() error {
					for i := 0; i < k; i++ {
						want := boundPayload(r, i)
						if c.Rank() == 0 {
							if _, err := move(c, b, want); err != nil {
								return err
							}
							continue
						}
						if r == 0 && i == 0 {
							if err := w.parked(0); err != nil { // two runs ahead, waiting on this rank
								return err
							}
						}
						buf := make([]byte, 256)
						st, err := move(c, b, buf)
						if err != nil {
							return err
						}
						if !bytes.Equal(buf[:st.Count], want) || st.Source != 0 {
							return fmt.Errorf("run %d message %d: %d bytes from %d, first %d", r, i, st.Count, st.Source, buf[0])
						}
					}
					return nil
				})
				if err != nil {
					return fmt.Errorf("rank %d run %d: %w", c.Rank(), r, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := w.metrics.Snapshot()
		if s.EagerSends != runs*k || s.EagerRecvs != runs*k || s.RdvSends+s.RdvRecvs != 0 ||
			s.StagedBytes != runs*(1+64+256) || s.Parks == 0 || s.ArrivalQueueMax+s.PostedQueueMax != 0 {
			t.Errorf("%s: %d/%d eager sends/receives, %d staged bytes, %d parks, queues %d/%d; want %d, %d, some, none",
				name, s.EagerSends, s.EagerRecvs, s.StagedBytes, s.Parks, s.ArrivalQueueMax, s.PostedQueueMax,
				runs*k, runs*(1+64+256))
		}
	}
}

// TestBoundSenderTwoRunsAhead: an edge holds two runs of its messages.
// A sender whose receiver takes nothing yet completes two runs without
// parking — the plain Send it makes after them arrives — and parks on
// its third; then all three arrive intact.
func TestBoundSenderTwoRunsAhead(t *testing.T) {
	const runs, k = 3, 3
	for name, w := range boundWorlds(t) {
		err := w.Run(func(c mpi.Comm) error {
			b := bindEdge(c, k, 256)
			if c.Rank() == 0 {
				for r := 0; r < runs; r++ {
					if r == 2 {
						if err := c.Send([]byte{1}, 1, 5); err != nil {
							return err
						}
					}
					err := boundRun(c, b, func() error {
						for i := 0; i < k; i++ {
							if _, err := move(c, b, boundPayload(r, i)); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						return fmt.Errorf("rank 0 run %d: %w", r, err)
					}
				}
				return nil
			}
			if _, err := c.Recv(make([]byte, 1), 0, 5); err != nil {
				return fmt.Errorf("waiting for two runs to be sent: %w", err)
			}
			e := b.(*binding).edges[0].e
			for !e.sendWaits.armed.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			if e.sent != 2*k || e.taken.Load() != 0 {
				return fmt.Errorf("sender parked with %d sent and %d taken, want %d and none", e.sent, e.taken.Load(), 2*k)
			}
			for r := 0; r < runs; r++ {
				err := boundRun(c, b, func() error {
					for i := 0; i < k; i++ {
						buf := make([]byte, 256)
						st, err := move(c, b, buf)
						if err != nil {
							return err
						}
						if want := boundPayload(r, i); !bytes.Equal(buf[:st.Count], want) {
							return fmt.Errorf("message %d: %d bytes, first %d", i, st.Count, buf[0])
						}
					}
					return nil
				})
				if err != nil {
					return fmt.Errorf("rank 1 run %d: %w", r, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBoundRebindWhileDraining: a sender that rebinds for a new length
// and runs on, into its new edge's third run, before its receiver has
// drained the old edge: each binding has an edge of its own, and every
// run's messages arrive on it.
func TestBoundRebindWhileDraining(t *testing.T) {
	for name, w := range boundWorlds(t) {
		err := w.Run(func(c mpi.Comm) error {
			if c.Rank() == 1 {
				if err := w.parked(0); err != nil {
					return err
				}
			}
			var b mpi.Binding
			last := 0
			for r, n := range []int{16, 32, 32, 32} {
				if n != last { // a kept plan rebinds only for a new length
					b, last = bindEdge(c, 2, n), n
				}
				err := boundRun(c, b, func() error {
					for i := 0; i < 2; i++ {
						want := bytes.Repeat([]byte{byte(10*r + i)}, n)
						if c.Rank() == 0 {
							if _, err := move(c, b, want); err != nil {
								return err
							}
							continue
						}
						buf := make([]byte, n)
						if st, err := move(c, b, buf); err != nil || st.Count != n || !bytes.Equal(buf, want) {
							return fmt.Errorf("run %d message %d: %d of %d bytes, %v", r, i, st.Count, n, err)
						}
					}
					return nil
				})
				if err != nil {
					return fmt.Errorf("rank %d: %w", c.Rank(), err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// boundEdges counts the bound edges the world's endpoints hold.
func (w *World) boundEdges() (n int) {
	for _, ep := range w.eps {
		ep.mu.Lock()
		n += len(ep.edges)
		ep.mu.Unlock()
	}
	return n
}

// TestBoundRebindsReleaseTheirEdges: a kept Plan that rebinds releases
// the edges it bound before, so 1000 rebinds between two lengths in one
// Run leave the endpoints holding one binding's edges, and a released
// Plan none.
func TestBoundRebindsReleaseTheirEdges(t *testing.T) {
	const np, rebinds = 8, 1000
	lens := []int{512, 1024}
	o := collective.Options{Algorithm: tune.RingOptSeg}
	for _, opts := range []Options{{NP: np}, {NP: np, Executor: Pooled, MaxWorkers: 2}} {
		w, err := NewWorld(opts)
		if err != nil {
			t.Fatal(err)
		}
		name := ExecLabel(opts.Executor, opts.MaxWorkers)
		// run broadcasts n bytes on a kept Plan, then rebinds it to each
		// length of then in turn, broadcasting after each; edges holds
		// the bound edges once every rank is done, and after the Plans
		// are released.
		run := func(n int, then []int) (edges [2]int, err error) {
			err = w.Run(func(c mpi.Comm) error {
				p, err := collective.NewPlan(c, n, 0, o)
				if err != nil {
					return err
				}
				buf := make([]byte, 1024)
				if err := p.Execute(c, buf[:n]); err != nil {
					return err
				}
				for _, n := range then {
					if err := p.Rebind(c, n); err != nil {
						return err
					}
					if err := p.Execute(c, buf[:n]); err != nil {
						return err
					}
				}
				// count notes edges[i] while every rank waits.
				count := func(i int) error {
					if err := collective.Barrier(c); err != nil {
						return err
					}
					if c.Rank() == 0 {
						edges[i] = w.boundEdges()
					}
					return collective.Barrier(c)
				}
				if err := count(0); err != nil {
					return err
				}
				p.Release()
				return count(1)
			})
			return edges, err
		}
		one := 0
		for _, n := range lens {
			e, err := run(n, nil)
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", name, n, err)
			}
			one = max(one, e[0])
		}
		then := make([]int, rebinds)
		for i := range then {
			then[i] = lens[(i+1)%2]
		}
		e, err := run(lens[0], then)
		if err != nil {
			t.Fatalf("%s, %d rebinds: %v", name, rebinds, err)
		}
		t.Logf("%s: one binding holds %d edges; %d after %d rebinds, %d once released", name, one, e[0], rebinds, e[1])
		if one == 0 || e[0] > one || e[1] != 0 {
			t.Errorf("%s: %d bound edges after %d rebinds, %d once released; want at most one binding's %d (and some), then none",
				name, e[0], rebinds, e[1], one)
		}
	}
}

// TestBoundReleaseKeepsUndrained: an edge whose receiver did not take
// every message stays bound when both ends release it, and the Run-end
// check reports what is left in it.
func TestBoundReleaseKeepsUndrained(t *testing.T) {
	for name, w := range boundWorlds(t) {
		var left int
		err := w.Run(func(c mpi.Comm) error {
			b := bindEdge(c, 2, 8)
			err := boundRun(c, b, func() error {
				if c.Rank() == 1 {
					_, err := move(c, b, make([]byte, 8))
					return err
				}
				for i := 0; i < 2; i++ {
					if _, err := move(c, b, []byte{byte(i)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			b.Release()
			if err := collective.Barrier(c); err != nil {
				return err
			}
			if c.Rank() == 0 {
				left = w.boundEdges()
			}
			return nil
		})
		if left != 1 || err == nil || !strings.Contains(err.Error(), "rank 1 finished with 1 unconsumed messages") {
			t.Errorf("%s: %d edges left bound, run %v; want 1, and the message reported", name, left, err)
		}
	}
}

// TestBoundMismatchedSchedules: ranks that bound different schedules
// end in an error — a truncation, the watchdog's deadlock (naming a
// bound wait), or the run-end check — never in a hang. A rank whose
// Bind bound nothing runs its schedule on the communicator, as the
// executor does.
func TestBoundMismatchedSchedules(t *testing.T) {
	for _, tc := range []struct {
		name             string
		sendLen, recvLen int
		sent, received   int
		want             error
		report           string
	}{
		// Each end makes the edge's cells its own size, if first: the
		// receiver's buffer is too short, or the sender's message
		// misses the edge.
		{"longer message", 24, 16, 1, 1, mpi.ErrTruncate, ""},
		// Too long to bind on the receiver's side: its receive waits in
		// the queue for a message that went onto the edge.
		{"one end unbound", 8, 300, 1, 1, mpi.ErrDeadlock, "rank 1 waiting recv src=0"},
		{"missing message", 8, 8, 1, 2, mpi.ErrDeadlock, "rank 1 waiting on bound edge from 0"},
		{"extra message", 8, 8, 2, 1, nil, "1 unconsumed messages"},
	} {
		for name, w := range boundWorlds(t) {
			err := w.Run(func(c mpi.Comm) error {
				n, msgs := tc.sendLen, tc.sent
				if c.Rank() == 1 {
					n, msgs = tc.recvLen, tc.received
				}
				b := c.Bind([]mpi.Edge{{Peer: 1 - c.Rank(), Tag: boundTag, Send: c.Rank() == 0, Count: 2, MaxLen: n}})
				c.NextTagStream()
				engaged := b != nil && b.Engage(c)
				if engaged {
					defer b.Disengage()
				}
				for i := 0; i < msgs; i++ {
					var err error
					switch {
					case engaged:
						_, err = move(c, b, make([]byte, n))
					case c.Rank() == 0:
						err = c.Send(make([]byte, n), 1, boundTag)
					default:
						_, err = c.Recv(make([]byte, n), 0, boundTag)
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			switch {
			case err == nil || !strings.Contains(err.Error(), tc.report):
				t.Errorf("%s, %s: %v, want it to say %q", tc.name, name, err, tc.report)
			case tc.want == mpi.ErrTruncate && errors.Is(err, mpi.ErrDeadlock): // the message missed the edge
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Errorf("%s, %s: %v, want %v", tc.name, name, err, tc.want)
			}
		}
	}
}

// TestBoundOneHalfUnbound: an op whose one half is bound and whose other
// is too long to be moves both, byte for byte: rank 0 runs each run's
// exchange as one op, rank 1 as a send and then a receive. With the
// bound half a send and rank 1 taking its first run's message only in
// its second run, rank 0 finds its cell still full two runs ahead, and
// its unbound receive is posted before it parks there.
func TestBoundOneHalfUnbound(t *testing.T) {
	const runs = 3
	for _, tc := range []struct {
		name        string
		sent, recvd int // rank 0's message lengths
	}{
		{"bound send, unbound receive", 64, 300},
		{"unbound send, bound receive", 300, 64},
	} {
		for name, w := range boundWorlds(t) {
			err := w.Run(func(c mpi.Comm) error {
				me, peer := c.Rank(), 1-c.Rank()
				out, in := tc.sent, tc.recvd
				if me == 1 {
					out, in = in, out
				}
				b := c.Bind([]mpi.Edge{
					{Peer: peer, Tag: boundTag, Send: true, Count: 1, MaxLen: out},
					{Peer: peer, Tag: boundTag, Count: 1, MaxLen: in},
				})
				full := me == 1 && tc.sent <= inlinePayload && w.slots == nil
				rbuf := make([]byte, in)
				// recv receives run r's message.
				recv := func(r int, move func() (mpi.Status, error)) error {
					st, err := move()
					want := bytes.Repeat([]byte{byte(10*r + peer + 1)}, in)
					if err == nil && (st.Count != in || st.Source != peer || !bytes.Equal(rbuf, want)) {
						err = fmt.Errorf("%d of %d bytes from %d, first %d", st.Count, in, st.Source, rbuf[0])
					}
					return err
				}
				for r := 0; r < runs; r++ {
					sbuf := bytes.Repeat([]byte{byte(10*r + me + 1)}, out)
					err := boundRun(c, b, func() error {
						if me == 0 {
							return recv(r, func() (mpi.Status, error) { return b.Move(0, sbuf, 1, rbuf) })
						}
						if _, err := b.Move(0, sbuf, -1, nil); err != nil {
							return err
						}
						take := func() (mpi.Status, error) { return b.Move(-1, nil, 1, rbuf) }
						if full && r == 0 {
							return nil // taken in the next run, before that run's message
						}
						if full && r == 1 {
							// Rank 0 is two runs ahead: parked on its full cell,
							// its next receive already posted.
							for !b.(*binding).edges[1].e.sendWaits.armed.Load() {
								time.Sleep(50 * time.Microsecond)
							}
							if n := w.eps[0].pendingRecvs(); n != 1 {
								return fmt.Errorf("rank 0 parked on its edge with %d receives posted, want 1", n)
							}
							if err := recv(0, take); err != nil {
								return err
							}
						}
						return recv(r, take)
					})
					if err != nil {
						return fmt.Errorf("rank %d run %d: %w", me, r, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s, %s: %v", tc.name, name, err)
			}
		}
	}
}

// TestBoundMoveAfterAbort: a Move in an aborted world returns the abort
// and leaves its cells alone, a free one to send into and a full one to
// take from alike.
func TestBoundMoveAfterAbort(t *testing.T) {
	boom := errors.New("boom")
	for name, w := range boundWorlds(t) {
		var moveErr [2]error
		var moved [2]uint64
		err := w.Run(func(c mpi.Comm) error {
			b := bindEdge(c, 2, 8)
			return boundRun(c, b, func() error {
				e := b.(*binding).edges[0].e
				if c.Rank() == 0 {
					if _, err := move(c, b, []byte{1}); err != nil {
						return err
					}
					w.abort(boom)
					_, moveErr[0] = move(c, b, []byte{2})
					moved[0] = e.sent
					return boom
				}
				// Ended by the abort, wherever it finds the world.
				if _, err := c.Recv(make([]byte, 1), 0, 5); !errors.Is(err, mpi.ErrAborted) {
					return fmt.Errorf("recv %v, want the abort", err)
				}
				_, moveErr[1] = move(c, b, make([]byte, 8))
				moved[1] = e.taken.Load()
				return moveErr[1]
			})
		})
		if !errors.Is(err, boom) || !errors.Is(moveErr[0], boom) || !errors.Is(moveErr[1], boom) || moved != [2]uint64{1, 0} {
			t.Errorf("%s: run %v, moves %v, %d sent and %d taken; want the abort, 1 sent and none taken", name, err, moveErr, moved[0], moved[1])
		}
	}
}
