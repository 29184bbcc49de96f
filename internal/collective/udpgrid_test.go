package collective

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/tune"
)

// runDecisionWired runs one registry broadcast on a world bound to the
// given transport and verifies every rank's buffer inside the run.
func runDecisionWired(t *testing.T, opts engine.Options, d tune.Decision, root, n int) {
	t.Helper()
	want := pattern(n)
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(0xA0 + c.Rank())
		}
		if c.Rank() == root {
			copy(buf, want)
		}
		if err := RunDecision(c, buf, root, d); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch (first diff at %d)", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s exec=%v n=%d: %v", d.Algorithm, opts.Executor, n, err)
	}
}

// TestUDPTransportRegistryGrid is the transport acceptance grid: every
// registry algorithm at np=8 on a force-wired loopback UDP transport —
// all traffic really framed into datagrams, acked, reassembled — on
// both executors, at an eager and a rendezvous message size. Buffers
// must match the in-process result exactly (same pattern oracle the
// chan-transport grids assert against).
func TestUDPTransportRegistryGrid(t *testing.T) {
	const (
		p     = 8
		seg   = 512
		eager = 2 << 10 // EagerLimit: n=seg+1 eager, n=32KiB rendezvous
	)
	topo := topology.Blocked(p, 4)
	root := p / 2
	for _, r := range Algorithms() {
		for _, execPolicy := range []engine.ExecPolicy{engine.Goroutine, engine.Pooled} {
			for _, n := range []int{seg + 1, 32 << 10} {
				e := tune.EnvOf(n, p, topo)
				if !r.Caps.Match(e) {
					continue
				}
				d := tune.Decision{Algorithm: r.Name}
				if r.Caps.Segmented {
					d.SegSize = seg
				}
				tr, err := transport.SelfUDP(p)
				if err != nil {
					t.Fatal(err)
				}
				opts := engine.Options{
					NP: p, Topology: topo, EagerLimit: eager,
					Timeout: 60 * time.Second, Transport: tr, Executor: execPolicy,
				}
				if execPolicy == engine.Pooled {
					opts.MaxWorkers = 2
				}
				runDecisionWired(t, opts, d, root, n)
				tr.Close()
			}
		}
	}
}

// noSyscallConn hides a socket's file descriptor: a transport over it
// has nothing to hand recvmmsg and reads with ReadFrom.
type noSyscallConn struct{ net.PacketConn }

// TestUDPTransportFaultGrid proves the acceptance criterion for the
// fault-injection satellite at the collective level: native, opt and
// opt-seg broadcasts over a loopback UDP transport whose socket drops
// 5% of datagrams (plus duplication and reordering) must still produce
// byte-identical buffers, with the recovery visible as retransmits in
// the metrics snapshot. Each row runs over two sockets: a Faulty around
// a raw socket, which the transport reads in batches (on Linux) while
// every write still meets the Faulty, and a Faulty around a wrapper
// without SyscallConn, which keeps the portable read path under loss.
func TestUDPTransportFaultGrid(t *testing.T) {
	const (
		p   = 8
		n   = 24 << 10
		seg = 4096
	)
	batchable := runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
	topo := topology.Blocked(p, 4)
	for _, sock := range []struct {
		name    string
		wrap    func(net.PacketConn) net.PacketConn
		batched bool
	}{
		{"raw", func(c net.PacketConn) net.PacketConn { return c }, batchable},
		{"no-syscallconn", func(c net.PacketConn) net.PacketConn { return noSyscallConn{c} }, false},
	} {
		m := metrics.New(p, 0)
		for _, algo := range []string{tune.RingNative, tune.RingOpt, tune.RingOptSeg} {
			conn, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			faulty := transport.NewFaulty(sock.wrap(conn), transport.FaultConfig{Drop: 0.05, Dup: 0.02, Reorder: 0.02})
			tr, err := transport.NewUDP(transport.UDPConfig{
				NP: p, Conn: faulty, ForceWire: true, RetransmitEvery: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			d := tune.Decision{Algorithm: algo}
			if algo == tune.RingOptSeg {
				d.SegSize = seg
			}
			runDecisionWired(t, engine.Options{
				NP: p, Topology: topo, EagerLimit: 2 << 10,
				Timeout: 120 * time.Second, Transport: tr, Metrics: m,
			}, d, 0, n)
			tr.Close()
		}
		s := m.Snapshot()
		if s.WireRetransmits == 0 {
			t.Errorf("%s: 5%% datagram loss must surface as retransmits in the snapshot", sock.name)
		}
		if s.WireDatagramsSent == 0 || s.WireDatagramsRecv == 0 {
			t.Errorf("%s: wire counters dark under the fault grid: %+v", sock.name, s)
		}
		if s.WireBatchedWrites != 0 {
			t.Errorf("%s: %d batched writes went around the Faulty's injected faults", sock.name, s.WireBatchedWrites)
		}
		if got := s.WireBatchedReads > 0; got != sock.batched {
			t.Errorf("%s: %d batched reads; batched reads expected: %v", sock.name, s.WireBatchedReads, sock.batched)
		}
	}
}

// ringOptRounds broadcasts 1 MiB from rank 0 with ring-opt, rounds times
// back to back inside one np=8 run over tr — so the flow never idles: an
// idle transport's coarse tick makes the first burst after it look timed
// out — and checks the bytes every rank ends up with. It returns the
// world's counters as they stood after the first warmup rounds (the
// estimator and the window have settled by then) and at the end.
func ringOptRounds(t *testing.T, tr transport.Transport, warmup, rounds int) (warm, end metrics.Snapshot) {
	t.Helper()
	const (
		p = 8
		n = 1 << 20
	)
	m := metrics.New(p, 0)
	err := engine.RunWith(engine.Options{
		NP: p, Topology: topology.Blocked(p, 4),
		Timeout: 60 * time.Second, Transport: tr, Metrics: m,
	}, func(c mpi.Comm) error {
		// Stamp and spot-check each round, compare in full once: on a
		// small host eight ranks comparing megabytes every round would
		// starve the transport's clock into spurious timeouts.
		want := pattern(n)
		buf := make([]byte, n)
		if c.Rank() == 0 {
			copy(buf, want)
		}
		for i := 0; i < rounds; i++ {
			if i == warmup && c.Rank() == 0 {
				warm = m.Snapshot()
			}
			stamp := byte(i + 1)
			if c.Rank() == 0 {
				buf[0], buf[n/2], buf[n-1] = stamp, stamp, stamp
			}
			if err := RunDecision(c, buf, 0, tune.Decision{Algorithm: tune.RingOpt}); err != nil {
				return err
			}
			if buf[0] != stamp || buf[n/2] != stamp || buf[n-1] != stamp {
				return fmt.Errorf("rank %d round %d: stamps %d %d %d, want %d", c.Rank(), i, buf[0], buf[n/2], buf[n-1], stamp)
			}
		}
		want[0], want[n/2], want[n-1] = byte(rounds), byte(rounds), byte(rounds)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch (first diff at %d)", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return warm, m.Snapshot()
}

// TestUDPWrappedSocketKeepsItsWindow is the regression test for the
// Faulty socket-buffer trap: NewUDP used to size the kernel buffers only
// of a socket it saw as *net.UDPConn, so one wrapped in a Faulty kept
// the ~208 KiB default, a 256 × 32 KiB window overflowed it, and a
// 1 MiB broadcast at 0 % injected loss spent 360 ms in timeouts. With
// the sizing forwarded through the wrapper, a fault-free wrapped socket
// behaves like a raw one: under 1 % of its datagrams are re-sent.
func TestUDPWrappedSocketKeepsItsWindow(t *testing.T) {
	retxShare := func(wrap bool) float64 {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			conn = transport.NewFaulty(conn, transport.FaultConfig{})
		}
		tr, err := transport.NewUDP(transport.UDPConfig{NP: 8, Conn: conn, ForceWire: true})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		warm, s := ringOptRounds(t, tr, 5, 25)
		return float64(s.WireRetransmits-warm.WireRetransmits) / float64(s.WireDatagramsSent-warm.WireDatagramsSent)
	}
	raw := retxShare(false)
	t.Logf("raw %.2f%%", 100*raw)
	if raw >= 0.005 {
		t.Skipf("a raw socket already re-sends %.1f%% of its datagrams here (kernel buffer cap?): nothing to compare", 100*raw)
	}
	wrapped := retxShare(true)
	t.Logf("wrapped %.2f%%", 100*wrapped)
	if wrapped >= 0.01 {
		t.Errorf("a Faulty-wrapped socket re-sent %.1f%% of its datagrams at 0%% injected loss, want < 1%%", 100*wrapped)
	}
}

// TestUDPDirectPlacement is the receive placement end to end: on a clean
// loopback socket, most of what a 1 MiB ring-opt broadcast receives is
// written by the kernel straight into the posted receives — every
// fragment of a 128 KiB chunk, less the chunks that arrived before their
// receive was posted and whatever an ACK arriving between two fragments
// knocked out of place (the floor asserted is far below the ~0.9 a quiet
// host measures: a loaded one interleaves more) — with every rank's
// bytes intact. A socket without batched reads has no windows to aim at
// and places nothing directly.
func TestUDPDirectPlacement(t *testing.T) {
	tr, err := transport.SelfUDP(8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	warm, s := ringOptRounds(t, tr, 2, 10)
	if s.WireBatchedReads == 0 {
		if s.WireDirectBytes != 0 {
			t.Errorf("%d bytes placed directly without a batched read", s.WireDirectBytes)
		}
		t.Skip("no batched datagram reads on this platform")
	}
	share := float64(s.WireDirectBytes-warm.WireDirectBytes) / float64(s.WireBytesRecv-warm.WireBytesRecv)
	t.Logf("%.1f%% of the bytes received were placed by the kernel (%.1f datagrams per read)", 100*share,
		float64(s.WireDatagramsRecv-warm.WireDatagramsRecv)/float64(s.WireBatchedReads-warm.WireBatchedReads))
	if share < 0.60 {
		t.Errorf("direct share %.2f on a clean loopback ring, want at least 0.60", share)
	}
}
