package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// The blocking Send past the eager credit window: it is isend + Wait, so
// the overflow goes out as a zero-copy envelope. Both executors, the
// pooled one with a single slot, where a sender that blocked anywhere
// but in Wait would keep the receiver from ever running.

const (
	creditMsgs = 50
	creditSize = 64
)

func creditPayload(i int) []byte {
	return bytes.Repeat([]byte{byte(i + 1)}, creditSize)
}

func creditWorlds(t *testing.T) map[string]*World {
	t.Helper()
	worlds := map[string]*World{}
	for name, opts := range map[string]Options{
		"goroutine": {},
		"pooled(1)": {Executor: Pooled, MaxWorkers: 1},
	} {
		opts.NP, opts.EagerLimit, opts.EagerCredits = 2, 1<<10, 2
		opts.Timeout, opts.DeadlockAfter = 20*time.Second, 100*time.Millisecond
		w, err := NewWorld(opts)
		if err != nil {
			t.Fatal(err)
		}
		worlds[name] = w
	}
	return worlds
}

// TestCreditOverflowBlockingSend: 50 blocking eager Sends to a receiver
// that starts late, through a window of 2. Everything arrives in order
// and intact, and the sends the window refused are counted as zero-copy.
func TestCreditOverflowBlockingSend(t *testing.T) {
	for name, w := range creditWorlds(t) {
		err := w.Run(func(c mpi.Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < creditMsgs; i++ {
					if err := c.Send(creditPayload(i), 1, 3); err != nil {
						return fmt.Errorf("send %d: %w", i, err)
					}
				}
				return nil
			}
			// Late: not before the sender has filled the window and blocked.
			// (With one slot the sender cannot run while this rank spins;
			// there the first Recv parks this rank and the sender runs
			// until it has to park itself.)
			for name == "goroutine" && w.state[0].Load() != 1 {
				time.Sleep(50 * time.Microsecond)
			}
			buf := make([]byte, creditSize)
			for i := 0; i < creditMsgs; i++ {
				st, err := c.Recv(buf, 0, 3)
				if err != nil {
					return fmt.Errorf("recv %d: %w", i, err)
				}
				if st.Count != creditSize || !bytes.Equal(buf, creditPayload(i)) {
					return fmt.Errorf("message %d arrived as %d bytes of %d", i, st.Count, buf[0])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := w.metrics.Snapshot()
		if s.RdvSends == 0 || s.EagerSends+s.RdvSends != creditMsgs {
			t.Errorf("%s: eager=%d zero-copy=%d sends, want %d in all and the overflow zero-copy",
				name, s.EagerSends, s.RdvSends, creditMsgs)
		}
	}
}

// TestCreditOverflowNoReceiverDeadlock: the same sends with nobody
// receiving end in the watchdog's report, which names the blocked sender
// and what it is blocked on.
func TestCreditOverflowNoReceiverDeadlock(t *testing.T) {
	for name, w := range creditWorlds(t) {
		err := w.Run(func(c mpi.Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			for i := 0; i < creditMsgs; i++ {
				if err := c.Send(creditPayload(i), 1, 3); err != nil {
					return fmt.Errorf("send %d: %w", i, err)
				}
			}
			return nil
		})
		if !errors.Is(err, mpi.ErrDeadlock) {
			t.Fatalf("%s: want mpi.ErrDeadlock, got %v", name, err)
		}
		want := fmt.Sprintf("rank 1 holds blocked send, %d bytes, zero-copy, from 0 tag=3", creditSize)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: deadlock report does not say %q:\n%v", name, want, err)
		}
	}
}
