package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/tune"
)

// The soak drives the UDP transport across real process boundaries: a
// coordinator (soak) spawns one child process (soak-child) per rank
// block, the children bootstrap a shared peer table over loopback UDP,
// boot one engine world whose ranks are split across the processes, and
// run a broadcast matrix (native / opt / opt-seg, eager- and
// rendezvous-sized messages). Every rank hashes its final buffer, the
// coordinator re-runs the identical matrix on the in-process chan
// transport, and the soak passes only if every hash from every process
// matches the in-process reference — byte-identity of the wire path,
// asserted end to end.
//
// The fault flags wrap each child's socket in the transport's fault
// injector, so datagrams are dropped, duplicated and reordered while
// the results must stay byte-identical — retransmits show up in the
// -metrics snapshot each child prints to stderr.
//
// Bootstrap protocol (text datagrams on the same sockets the transport
// later owns; the transport drops packets whose first byte it does not
// recognize, so a straggling HELLO cannot corrupt a run): each child
// binds a socket and sends "HELLO <ranks>" to the coordinator until it
// receives "PEERS <rank>=<addr> ..." naming every rank's socket, then
// hands the socket to the transport and launches the world.

// bootstrapDeadline bounds the HELLO/PEERS exchange; a child that
// cannot reach the coordinator in this window exits instead of hanging.
const bootstrapDeadline = 30 * time.Second

// soakCase is one cell of the broadcast matrix.
type soakCase struct {
	algo string
	seg  int
	size int
}

// matrix builds the soak's broadcast matrix: the paper's native and
// optimized rings plus the segmented variant, each at an eager-sized
// and a rendezvous-sized message (engine default threshold is 64 KiB).
func matrix() []soakCase {
	var cases []soakCase
	for _, a := range []struct {
		algo string
		seg  int
	}{
		{tune.RingNative, 0},
		{tune.RingOpt, 0},
		{tune.RingOptSeg, 8192},
	} {
		for _, size := range []int{4096, 128 << 10} {
			cases = append(cases, soakCase{algo: a.algo, seg: a.seg, size: size})
		}
	}
	return cases
}

// soakRoot is the broadcast root of every case — a non-zero rank so the
// root's traffic crosses a process boundary in every multi-process
// split.
const soakRoot = 1

// fill writes the deterministic payload pattern the root broadcasts.
func fill(buf []byte) {
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
}

// runMatrix executes the broadcast matrix inside one world run and
// records the sha256 of each hosted rank's final buffer per case.
// hashes[rank] is written only by that rank's goroutine.
func runMatrix(w *engine.World, hashes [][]string) error {
	cases := matrix()
	return w.Run(func(c mpi.Comm) error {
		for _, sc := range cases {
			buf := make([]byte, sc.size)
			if c.Rank() == soakRoot {
				fill(buf)
			}
			d := tune.Decision{Algorithm: sc.algo, SegSize: sc.seg}
			if err := collective.RunDecision(c, buf, soakRoot, d); err != nil {
				return fmt.Errorf("case %s/%d on rank %d: %w", sc.algo, sc.size, c.Rank(), err)
			}
			sum := sha256.Sum256(buf)
			hashes[c.Rank()] = append(hashes[c.Rank()], fmt.Sprintf("%x", sum))
			if err := collective.Barrier(c); err != nil {
				return err
			}
		}
		return nil
	})
}

// runSoak is the coordinator: it spawns the children, brokers the peer
// table, collects every RESULT line, and verdicts the soak against an
// in-process reference run.
func runSoak(cfg *cli.Config, stdout io.Writer) error {
	np, procs := cfg.NP[0], cfg.Procs
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Bootstrap socket: children HELLO here and learn the peer table.
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer conn.Close()

	// Contiguous rank blocks whose sizes differ by at most one.
	blocks := make([][]int, procs)
	for r := 0; r < np; r++ {
		blocks[r*procs/np] = append(blocks[r*procs/np], r)
	}

	fmt.Fprintf(stdout, "# bcast soak: np=%d across %d processes, root=%d, faults drop=%.2f dup=%.2f reorder=%.2f\n",
		np, procs, soakRoot, cfg.Drop, cfg.Dup, cfg.Reorder)

	results := make(chan string, 256)
	waitErrs := make(chan error, procs)
	var wg sync.WaitGroup
	for i, block := range blocks {
		cmd := exec.Command(self, "soak-child",
			"-coord", conn.LocalAddr().String(),
			"-ranks", cli.JoinInts(block),
			"-np", strconv.Itoa(np),
			"-drop", fmt.Sprint(cfg.Drop),
			"-dup", fmt.Sprint(cfg.Dup),
			"-reorder", fmt.Sprint(cfg.Reorder),
			"-seed", strconv.FormatInt(cfg.Seed+int64(i), 10),
			"-metrics="+strconv.FormatBool(cfg.Metrics))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning child %d: %w", i, err)
		}
		wg.Add(1)
		go func(i int, cmd *exec.Cmd) {
			defer wg.Done()
			// Drain stdout to EOF before Wait: Wait closes the pipe and
			// would discard still-buffered RESULT lines.
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				results <- sc.Text()
			}
			if err := cmd.Wait(); err != nil {
				waitErrs <- fmt.Errorf("child %d: %w", i, err)
			}
		}(i, cmd)
	}

	bootErr := brokerPeers(conn, np)
	// The broker returning (success or not) ends the bootstrap; children
	// past bootstrap no longer need the coordinator socket.
	go func() {
		wg.Wait()
		close(results)
		close(waitErrs)
	}()

	// Collect RESULT lines while children run.
	got := map[string]map[int]string{} // "algo/size" -> rank -> hash
	for line := range results {
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "RESULT" {
			fmt.Fprintln(stdout, line) // pass through anything else a child prints
			continue
		}
		rank, err := strconv.Atoi(fields[2])
		if err != nil || rank < 0 || rank >= np {
			return fmt.Errorf("malformed result line %q", line)
		}
		if got[fields[1]] == nil {
			got[fields[1]] = map[int]string{}
		}
		if prev, ok := got[fields[1]][rank]; ok && prev != fields[3] {
			return fmt.Errorf("rank %d reported twice for %s with different hashes", rank, fields[1])
		}
		got[fields[1]][rank] = fields[3]
	}
	for err := range waitErrs {
		return err
	}
	if bootErr != nil {
		return bootErr
	}

	want, err := referenceHashes(np)
	if err != nil {
		return fmt.Errorf("in-process reference run: %w", err)
	}
	var mismatches []string
	for key, ranks := range want {
		for r, h := range ranks {
			gh, ok := got[key][r]
			switch {
			case !ok:
				mismatches = append(mismatches, fmt.Sprintf("%s rank %d: no result", key, r))
			case gh != h:
				mismatches = append(mismatches, fmt.Sprintf("%s rank %d: udp %s != chan %s", key, r, gh[:12], h[:12]))
			}
		}
	}
	if len(mismatches) > 0 {
		sort.Strings(mismatches)
		return fmt.Errorf("SOAK FAIL: %d mismatches:\n  %s", len(mismatches), strings.Join(mismatches, "\n  "))
	}
	fmt.Fprintf(stdout, "SOAK PASS: %d cases x np=%d across %d processes byte-identical with the in-process engine\n",
		len(want), np, procs)
	return nil
}

// brokerPeers runs the coordinator side of the bootstrap: it collects
// HELLOs until every rank is addressed, then answers each HELLO with
// the full peer table (children keep HELLOing until answered, so a
// dropped PEERS heals itself).
func brokerPeers(conn net.PacketConn, np int) error {
	peers := map[int]string{} // rank -> socket address
	helloed := map[string]bool{}
	deadline := time.Now().Add(bootstrapDeadline)
	buf := make([]byte, 2048)
	for {
		conn.SetReadDeadline(deadline)
		n, from, err := conn.ReadFrom(buf)
		if err != nil {
			return fmt.Errorf("bootstrap: waiting for HELLOs (%d/%d ranks addressed): %w", len(peers), np, err)
		}
		msg := strings.TrimSpace(string(buf[:n]))
		ranks, ok := strings.CutPrefix(msg, "HELLO ")
		if !ok {
			continue
		}
		for _, tok := range strings.Split(ranks, ",") {
			r, err := strconv.Atoi(tok)
			if err != nil || r < 0 || r >= np {
				return fmt.Errorf("bootstrap: bad HELLO %q from %s", msg, from)
			}
			peers[r] = from.String()
		}
		helloed[from.String()] = false
		if len(peers) < np {
			continue
		}
		// Everyone is addressed: answer this HELLO (and every later
		// duplicate) with the table, and finish once every child got one.
		var sb strings.Builder
		sb.WriteString("PEERS")
		for r := 0; r < np; r++ {
			fmt.Fprintf(&sb, " %d=%s", r, peers[r])
		}
		if _, err := conn.WriteTo([]byte(sb.String()), from); err != nil {
			return fmt.Errorf("bootstrap: sending PEERS to %s: %w", from, err)
		}
		helloed[from.String()] = true
		done := true
		for _, answered := range helloed {
			done = done && answered
		}
		if done {
			return nil
		}
	}
}

// referenceHashes runs the identical matrix on the in-process chan
// transport and returns the per-case per-rank hashes the soak must
// reproduce.
func referenceHashes(np int) (map[string]map[int]string, error) {
	w, err := engine.NewWorld(engine.Options{NP: np})
	if err != nil {
		return nil, err
	}
	hashes := make([][]string, np)
	if err := runMatrix(w, hashes); err != nil {
		return nil, err
	}
	want := map[string]map[int]string{}
	for i, sc := range matrix() {
		key := fmt.Sprintf("%s/%d", sc.algo, sc.size)
		want[key] = map[int]string{}
		for r := 0; r < np; r++ {
			want[key][r] = hashes[r][i]
		}
	}
	return want, nil
}

// runSoakChild hosts one rank block: bootstrap the peer table, boot the
// world over the shared-socket UDP transport, run the matrix, and
// report one RESULT line per hosted rank and case on stdout.
func runSoakChild(cfg *cli.Config, stdout io.Writer) error {
	np, hosted := cfg.NP[0], cfg.Ranks
	coordAddr, err := net.ResolveUDPAddr("udp", cfg.Coord)
	if err != nil {
		return err
	}
	var conn net.PacketConn
	conn, err = net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if faults := cfg.Faults(); faults != nil {
		// The injector perturbs writes only, HELLO included — the
		// bootstrap retry loop absorbs a dropped HELLO exactly as the
		// transport absorbs a dropped datagram.
		conn = transport.NewFaulty(conn, *faults)
	}
	peers, err := bootstrap(conn, coordAddr, hosted, np)
	if err != nil {
		conn.Close()
		return err
	}

	tr, err := transport.NewUDP(transport.UDPConfig{
		NP:     np,
		Hosted: hosted,
		Peers:  peers,
		Conn:   conn,
	})
	if err != nil {
		conn.Close()
		return err
	}
	defer tr.Close()
	mx := metrics.New(np, 0)
	w, err := engine.NewWorld(engine.Options{
		NP:        np,
		Timeout:   time.Minute,
		Metrics:   mx,
		Transport: tr,
	})
	if err != nil {
		return err
	}
	hashes := make([][]string, np)
	if err := runMatrix(w, hashes); err != nil {
		return err
	}
	for i, sc := range matrix() {
		for _, r := range hosted {
			fmt.Fprintf(stdout, "RESULT %s/%d %d %s\n", sc.algo, sc.size, r, hashes[r][i])
		}
	}
	if cfg.Metrics {
		s := engine.CollectMetrics(mx)
		s.Transport = transport.UDPName
		fmt.Fprintf(os.Stderr, "# child ranks %v\n%s\n", hosted, s.String())
	}
	return nil
}

// bootstrap sends HELLO to the coordinator until the PEERS table
// arrives, then strips our own ranks from it (the transport defaults
// hosted ranks to the local socket). Data datagrams from fast peers
// that land during the wait are dropped here — the sender's retransmit
// path redelivers them once the transport owns the socket.
func bootstrap(conn net.PacketConn, coord net.Addr, hosted []int, np int) (map[int]string, error) {
	hello := []byte("HELLO " + cli.JoinInts(hosted))
	deadline := time.Now().Add(bootstrapDeadline)
	buf := make([]byte, 2048)
	for time.Now().Before(deadline) {
		if _, err := conn.WriteTo(hello, coord); err != nil {
			return nil, fmt.Errorf("bootstrap: HELLO: %w", err)
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			continue // timeout or transient: HELLO again
		}
		msg := strings.TrimSpace(string(buf[:n]))
		table, ok := strings.CutPrefix(msg, "PEERS ")
		if !ok {
			continue // a peer's early data datagram; its retransmit redelivers
		}
		peers := map[int]string{}
		for _, ent := range strings.Fields(table) {
			rs, addr, ok := strings.Cut(ent, "=")
			if !ok {
				return nil, fmt.Errorf("bootstrap: bad PEERS entry %q", ent)
			}
			r, err := strconv.Atoi(rs)
			if err != nil || r < 0 || r >= np {
				return nil, fmt.Errorf("bootstrap: bad PEERS rank %q", ent)
			}
			peers[r] = addr
		}
		if len(peers) != np {
			return nil, fmt.Errorf("bootstrap: PEERS names %d of %d ranks", len(peers), np)
		}
		conn.SetReadDeadline(time.Time{})
		return peers, nil
	}
	return nil, fmt.Errorf("bootstrap: no PEERS from %s within %v", coord, bootstrapDeadline)
}
