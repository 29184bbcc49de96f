package transport

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
)

// rdvEnd is both ranks of a single-process transport's rendezvous: rank
// 1 claims the Rdv payload into dst and answers with the RdvAck, and
// rank 0's receipt of the RdvAck is signalled on acked.
type rdvEnd struct {
	u     *UDP
	dst   []byte
	acked chan struct{}
}

func (e *rdvEnd) Claim(m Message, size int) Sink {
	if m.Kind != Rdv {
		return nil
	}
	return placed{buf: e.dst[:size]}
}

func (e *rdvEnd) Deliver(m Message) {
	m.Buf.Release()
	switch m.Kind {
	case Rdv:
		_ = e.u.Send(Message{Ctx: m.Ctx, Src: 1, SrcWorld: 1, Dst: 0, Kind: RdvAck, MsgID: m.MsgID})
	case RdvAck:
		e.acked <- struct{}{}
	}
}

// rdvSession runs a cold session that ends on a rendezvous, on a fresh
// single-process transport: rank 0 sends payload (pinned) to rank 1,
// which has it placed in dst and answers with the RdvAck. It returns
// the transport still open, as soon as rank 0 holds the RdvAck — the
// moment a world's last Run returns and its Close begins. The RdvAck's
// own datagram is then still unacknowledged.
func rdvSession(t *testing.T, payload, dst []byte) *UDP {
	t.Helper()
	u, err := SelfUDP(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	end := &rdvEnd{u: u, dst: dst, acked: make(chan struct{}, 1)}
	if err := u.Start(end); err != nil {
		t.Fatal(err)
	}
	clear(dst)
	if err := u.Send(Message{Ctx: 1, Src: 0, SrcWorld: 0, Dst: 1, Kind: Rdv, MsgID: 1, Data: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-end.acked:
	case <-time.After(10 * time.Second):
		t.Fatal("the rendezvous was never acknowledged")
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("the rendezvous payload arrived corrupted")
	}
	return u
}

// TestUDPReusesReceiveScratch: a transport reads into the receive slots
// a closed one handed back, so a cold session pays for the socket and
// its bookkeeping, not for 32 fresh 40 KiB slot buffers. The garbage
// collector is off while it runs, so the pool keeps what it is given.
// sync.Pool keeps one object per P out of the other Ps' reach, so the
// pool is first given one scratch more than there are Ps: whichever P
// the measured session starts on finds one of them.
func TestUDPReusesReceiveScratch(t *testing.T) {
	payload, dst := pattern(3, 1<<20), make([]byte, 1<<20)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	closed := map[*recvScratch]bool{}
	warm := make([]*UDP, runtime.GOMAXPROCS(0)+1)
	for i := range warm {
		warm[i] = rdvSession(t, payload, dst)
		if warm[i].bio == nil {
			t.Skip("no batched reads on this platform: the transport has no receive scratch")
		}
		closed[warm[i].bio.rx] = true
	}
	for _, u := range warm {
		if err := u.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u := rdvSession(t, payload, dst)
	rx := u.bio.rx
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random: the sessions ran, reuse is not judged")
	}
	if !closed[rx] {
		t.Error("the new transport reads into fresh slots, not into a closed transport's")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("a cold session allocated %d KiB", alloc>>10)
	if alloc > 256<<10 {
		t.Errorf("a cold session allocated %d KiB, want at most 256 KiB", alloc>>10)
	}
}

// TestUDPLateSendStaysOnItsSocket: a Send after Close fails with
// net.ErrClosed and enqueues nothing — it writes neither through the
// closed transport's own socket nor through the socket of the transport
// that took over its receive scratch. The late sends race new
// transports starting and running sessions on that scratch; the race
// detector sees any write-side state the two share, and the observer
// any datagram that got out.
func TestUDPLateSendStaysOnItsSocket(t *testing.T) {
	observer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()
	a, err := NewUDP(UDPConfig{NP: 2, Hosted: []int{0}, Peers: map[int]string{1: observer.LocalAddr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(discard); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.Send(Message{Ctx: 1, Dst: 1, Tag: i, Kind: Eager, Data: pattern(i, 100)}); !errors.Is(err, net.ErrClosed) {
				t.Errorf("Send %d after Close: got %v, want net.ErrClosed", i, err)
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	payload, dst := pattern(5, 256<<10), make([]byte, 256<<10)
	for i := 0; i < 8; i++ {
		if err := rdvSession(t, payload, dst).Close(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	f := &a.sendTo[1].send
	f.mu.Lock()
	queued := f.q.len()
	f.mu.Unlock()
	if queued != 0 {
		t.Errorf("Sends after Close left %d packets in the flow's queue", queued)
	}

	buf := make([]byte, maxDatagram)
	observer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, from, err := observer.ReadFrom(buf); err == nil {
		t.Fatalf("a Send after Close wrote a %d-byte datagram through %v", n, from)
	}
}

// TestUDPCloseReturnsOnLastAck: a Close that finds packets in flight
// returns when the ACK retiring the last of them has been read, not on
// a clock. Each session ends on a rendezvous, so Close finds the RdvAck
// unacknowledged and its ACK a loopback round trip away; a drain that
// slept between looks (or a wake that went missing) would take at
// least a millisecond.
func TestUDPCloseReturnsOnLastAck(t *testing.T) {
	const sessions = 25
	bound := 250 * time.Microsecond
	if raceEnabled {
		bound = 600 * time.Microsecond // still well inside the 1 ms a missed wake costs
	}
	payload, dst := pattern(7, 256<<10), make([]byte, 256<<10)
	took := make([]time.Duration, sessions)
	for i := range took {
		u := rdvSession(t, payload, dst)
		t0 := time.Now()
		if err := u.Close(); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(t0)
		if u.hasPending() {
			t.Fatalf("session %d: Close returned with packets unacknowledged", i)
		}
	}
	slices.Sort(took)
	median := took[sessions/2]
	t.Logf("Close over %d sessions: median %v, min %v, max %v", sessions, median, took[0], took[sessions-1])
	if median >= bound {
		t.Errorf("median Close %v, want under %v", median, bound)
	}
}
