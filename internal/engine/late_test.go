package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestPresendStagesNothing: eager-sized late sends that reach their
// receiver before its receives are posted wait in its queue as zero-copy
// envelopes, so nothing is staged, and arrive intact and in order, more
// of them than the late-send ring holds; one sent after its receive is
// posted is delivered on the spot. Each counts in the traffic row once
// WaitPresends has completed it.
func TestPresendStagesNothing(t *testing.T) {
	const (
		size = 16 << 10
		k    = lateWindow + 3
	)
	for _, exec := range []ExecPolicy{Goroutine, Pooled} {
		t.Run(exec.String(), func(t *testing.T) {
			m := metrics.New(2, 0)
			var row metrics.TrafficRow
			err := RunWith(Options{NP: 2, Executor: exec, Metrics: m, Timeout: 30 * time.Second}, func(c mpi.Comm) error {
				if c.Rank() == 0 {
					tc := c.WithTraffic(&row)
					bufs := make([][]byte, k+1)
					for i := range bufs {
						bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
					}
					for i := 0; i < k; i++ {
						if i == lateWindow {
							// The ring is full: let rank 1 receive, so
							// this Presend's wait for the oldest ends.
							if err := c.Send(nil, 1, 9); err != nil {
								return err
							}
						}
						if !tc.Presend(bufs[i], 1, 7) {
							return fmt.Errorf("Presend %d declined a local destination", i)
						}
					}
					if _, err := c.Recv(nil, 1, 10); err != nil { // tag 8's receive is posted
						return err
					}
					if !tc.Presend(bufs[k], 1, 8) {
						return errors.New("Presend declined a local destination")
					}
					if err := tc.WaitPresends(); err != nil {
						return err
					}
					if row.Total.Messages != k+1 || row.Total.Bytes != (k+1)*size {
						return fmt.Errorf("traffic row %+v after the wait, want %d messages of %d bytes", row.Total, k+1, size)
					}
					return nil
				}
				last := make([]byte, size)
				r := irecv(c, last, 0, 8)
				if _, err := c.Recv(nil, 0, 9); err != nil {
					return err
				}
				if err := c.Send(nil, 0, 10); err != nil {
					return err
				}
				in := make([]byte, size)
				for i := 0; i < k; i++ {
					if _, err := c.Recv(in, 0, 7); err != nil {
						return err
					}
					if !bytes.Equal(in, bytes.Repeat([]byte{byte(i + 1)}, size)) {
						return fmt.Errorf("message %d arrived as %d..", i, in[0])
					}
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
				if last[0] != byte(k+1) {
					return fmt.Errorf("the posted receive got %d..", last[0])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// The first lateWindow late sends went before any receive of
			// theirs was posted, so zero-copy; the last few race rank 1's
			// receives; tag 8's found its receive. The two empty signals
			// are eager.
			s := m.Snapshot()
			if s.StagedBytes != 0 || s.RdvSends < lateWindow || s.EagerSends+s.RdvSends != k+3 {
				t.Errorf("staged %d bytes, %d zero-copy and %d eager sends; want 0, at least %d, %d in all",
					s.StagedBytes, s.RdvSends, s.EagerSends, lateWindow, k+3)
			}
		})
	}
}

// TestPresendAcrossAbort: a late send still pending when a peer fails
// completes with the abort, whether the sender is in WaitPresends or in
// a Presend waiting for the oldest of a full ring, and the run leaves no
// goroutine behind. Toward a destination the transport wires, Presend
// declines and sends nothing, as Prepost declines a wired source; so it
// does a message above the eager limit, which is never staged.
func TestPresendAcrossAbort(t *testing.T) {
	boom := errors.New("rank 1 gives up")
	base := runtime.NumGoroutine()
	for _, exec := range []ExecPolicy{Goroutine, Pooled} {
		for _, sends := range []int{1, lateWindow + 1} {
			t.Run(fmt.Sprintf("%s/sends=%d", exec, sends), func(t *testing.T) {
				err := RunWith(Options{NP: 2, Executor: exec, Timeout: 5 * time.Second, DeadlockAfter: -1}, func(c mpi.Comm) error {
					if c.Rank() == 1 {
						// It never posts the late sends' receive.
						if _, err := c.Recv(nil, 0, 4); err != nil {
							return err
						}
						return boom
					}
					buf := make([]byte, 16<<10)
					for i := 0; i < sends; i++ {
						if i == min(sends, lateWindow) {
							if err := c.Send(nil, 1, 4); err != nil {
								return err
							}
						}
						if !c.Presend(buf, 1, 3) {
							return errors.New("Presend declined a local destination")
						}
					}
					if sends == 1 {
						if err := c.Send(nil, 1, 4); err != nil {
							return err
						}
					}
					err := c.WaitPresends()
					if !errors.Is(err, mpi.ErrAborted) {
						return fmt.Errorf("WaitPresends = %v, want mpi.ErrAborted", err)
					}
					if err := c.WaitPresends(); err != nil {
						return fmt.Errorf("a second WaitPresends = %v, want nil: nothing is in flight", err)
					}
					return nil
				})
				if !errors.Is(err, boom) {
					t.Fatalf("Run = %v, want the cause %v", err, boom)
				}
				testutil.WaitGoroutines(t, base)
			})
		}
	}

	tr, err := transport.SelfUDP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	m := metrics.New(2, 0)
	err = RunWith(Options{NP: 2, Transport: tr, Metrics: m, Timeout: 30 * time.Second}, func(c mpi.Comm) error {
		peer := 1 - c.Rank()
		if c.Presend(make([]byte, 16<<10), peer, 3) {
			return fmt.Errorf("rank %d: Presend to wired rank %d was taken", c.Rank(), peer)
		}
		return c.WaitPresends()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.EagerSends+s.RdvSends != 0 {
		t.Errorf("a declined Presend sent: %+v", s)
	}

	err = RunWith(Options{NP: 2, EagerLimit: 8 << 10}, func(c mpi.Comm) error {
		if c.Presend(make([]byte, 8<<10+1), 1-c.Rank(), 3) {
			return fmt.Errorf("rank %d: Presend above the eager limit was taken", c.Rank())
		}
		return c.WaitPresends()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPresendReusesItsSlot: a late send's slot carries the next one as
// soon as its receiver has taken the last — here the first slot, every
// time, since WaitPresends empties the ring — each time as a zero-copy
// envelope, because its receive is posted only afterwards, and to the
// other of two receivers in turn. A receiver hands the slot's envelope
// back with its signal and touches it no more: under the race detector
// the sender's rewrite of it, under the other receiver's lock, races
// nothing. Every message arrives intact.
func TestPresendReusesItsSlot(t *testing.T) {
	const (
		size   = 16 << 10
		rounds = 4
	)
	m := metrics.New(3, 0)
	err := RunWith(Options{NP: 3, Metrics: m, Timeout: 30 * time.Second}, func(c mpi.Comm) error {
		for r := 0; r < rounds; r++ {
			if c.Rank() == 0 {
				for to := 1; to <= 2; to++ {
					if !c.Presend(bytes.Repeat([]byte{byte(r + to)}, size), to, 5) {
						return errors.New("Presend declined a local destination")
					}
					if err := c.Send(nil, to, 6); err != nil { // the message waits
						return err
					}
					if err := c.WaitPresends(); err != nil {
						return err
					}
				}
				continue
			}
			if _, err := c.Recv(nil, 0, 6); err != nil {
				return err
			}
			in := make([]byte, size)
			if _, err := c.Recv(in, 0, 5); err != nil {
				return err
			}
			if !bytes.Equal(in, bytes.Repeat([]byte{byte(r + c.Rank())}, size)) {
				return fmt.Errorf("rank %d round %d: the message arrived as %d..", c.Rank(), r, in[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.RdvSends != 2*rounds || s.StagedBytes != 0 {
		t.Errorf("%d zero-copy sends, %d bytes staged; want %d and none", s.RdvSends, s.StagedBytes, 2*rounds)
	}
}
