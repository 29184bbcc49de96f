package bcast_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bcast"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func mustCluster(t *testing.T, opts ...bcast.Option) *bcast.Cluster {
	t.Helper()
	cl, err := bcast.NewCluster(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestNewClusterValidation(t *testing.T) {
	ctx := context.Background()
	// A table whose rule names no registry row is malformed too.
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := writeFile(typo, `{"name": "typo", "rules": [{"decision": {"algorithm": "`+bcast.RingOpt+`t"}}]}`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []bcast.Option
		want string
	}{
		{"missing procs", nil, "Procs option is required"},
		{"bad procs", []bcast.Option{bcast.Procs(0)}, "must be positive"},
		{"bad placement", []bcast.Option{bcast.Procs(4), bcast.Placement("diagonal:3")}, "unknown placement"},
		{"unknown algorithm", []bcast.Option{bcast.Procs(4), bcast.Algorithm("warp-bcast")}, "unknown algorithm"},
		{"algorithm vs tuner", []bcast.Option{
			bcast.Procs(4), bcast.Algorithm(bcast.RingOpt),
			bcast.Tuner(bcast.MPICH3Tuner(true)),
		}, "mutually exclusive"},
		{"negative seg", []bcast.Option{bcast.Procs(4), bcast.SegSize(-1)}, "negative segment size"},
		{"custom placement length", []bcast.Option{bcast.Procs(4), bcast.CustomPlacement(0, 0, 1)}, "custom placement has 3 ranks"},
		{"missing table", []bcast.Option{bcast.Procs(4), bcast.TuneTable("/no/such/table.json")}, "load table"},
		{"table naming no row", []bcast.Option{bcast.Procs(4), bcast.TuneTable(typo)}, `rule 0: unknown algorithm "scatter-ring-allgather-optt"`},
	}
	for _, tc := range cases {
		_, err := bcast.NewCluster(ctx, tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := bcast.NewCluster(canceled, bcast.Procs(2)); err == nil {
		t.Error("pre-canceled cluster context not rejected")
	}
}

// TestRunBroadcastEveryPlacement drives the default dispatch and a
// pinned algorithm through the facade on each placement kind and checks
// every rank received the root's payload.
func TestRunBroadcastEveryPlacement(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		placement string
		opts      []bcast.CallOption
	}{
		{"single", nil},
		{"blocked:4", nil},
		{"round-robin:4", nil},
		{"blocked:4", []bcast.CallOption{bcast.WithAlgorithm(bcast.RingOpt)}},
		{"blocked:4", []bcast.CallOption{bcast.WithAlgorithm(bcast.RingOptSeg), bcast.WithSegSize(512)}},
		{"blocked:4", []bcast.CallOption{bcast.WithAlgorithm(bcast.SMPOpt)}},
	} {
		cl := mustCluster(t, bcast.Procs(9), bcast.Placement(tc.placement))
		const root = 2
		payload := bytes.Repeat([]byte("payload!"), 512)
		err := cl.Run(ctx, func(c bcast.Comm) error {
			buf := make([]byte, len(payload))
			if c.Rank() == root {
				copy(buf, payload)
			}
			if err := c.Bcast(ctx, buf, root, tc.opts...); err != nil {
				return err
			}
			if !bytes.Equal(buf, payload) {
				return errors.New("corrupted broadcast payload")
			}
			return c.Barrier(ctx)
		})
		if err != nil {
			t.Errorf("placement %s opts %d: %v", tc.placement, len(tc.opts), err)
		}
	}
}

// TestClusterReusable checks a Cluster survives sequential Runs (each
// boots a fresh world).
func TestClusterReusable(t *testing.T) {
	ctx := context.Background()
	cl := mustCluster(t, bcast.Procs(4))
	for i := 0; i < 3; i++ {
		if err := cl.Run(ctx, func(c bcast.Comm) error {
			buf := []byte{0}
			if c.Rank() == 0 {
				buf[0] = byte(i + 1)
			}
			if err := c.Bcast(ctx, buf, 0); err != nil {
				return err
			}
			if buf[0] != byte(i+1) {
				return errors.New("stale broadcast value")
			}
			return nil
		}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestDecisionResolution(t *testing.T) {
	cl := mustCluster(t, bcast.Procs(16))

	// Default dispatch is stock MPICH3: tiny messages take the binomial
	// tree, long ones the (native) ring.
	if d := cl.Decision(64); d.Algorithm != bcast.Binomial {
		t.Errorf("64 B decision = %+v, want binomial", d)
	}
	if d := cl.Decision(1 << 20); d.Algorithm != bcast.RingNative {
		t.Errorf("1 MiB decision = %+v, want %s", d, bcast.RingNative)
	}
	// The tuned dispatch picks the paper's ring on the long path.
	if d := cl.Decision(1<<20, bcast.WithTuner(bcast.MPICH3Tuner(true))); d.Algorithm != bcast.RingOpt {
		t.Errorf("tuned 1 MiB decision = %+v, want %s", d, bcast.RingOpt)
	}
	// Per-call pinning beats the cluster default, and WithSegSize rides
	// along.
	d := cl.Decision(1<<20, bcast.WithAlgorithm(bcast.RingOptSeg), bcast.WithSegSize(8192))
	if d.Algorithm != bcast.RingOptSeg || d.SegSize != 8192 {
		t.Errorf("pinned decision = %+v, want %s@8192", d, bcast.RingOptSeg)
	}
	// A custom tuner sees the real environment.
	var seen bcast.Env
	cl2 := mustCluster(t, bcast.Procs(8), bcast.Placement("blocked:4"),
		bcast.Tuner(func(e bcast.Env) bcast.Decision {
			seen = e
			return bcast.Decision{Algorithm: bcast.Binomial}
		}))
	if d := cl2.Decision(4096); d.Algorithm != bcast.Binomial {
		t.Errorf("custom tuner decision = %+v", d)
	}
	if seen.Procs != 8 || seen.Bytes != 4096 || seen.NumNodes != 2 || seen.Placement != "blocked" || seen.CoresPerNode != 4 || !seen.MultiNode() {
		t.Errorf("tuner env = %+v, want procs=8 bytes=4096 nodes=2 blocked cores=4", seen)
	}
	// WithTuner(nil) restores the default dispatch rather than
	// installing a tuner that cannot decide.
	if d := cl.Decision(1<<20, bcast.WithTuner(bcast.MPICH3Tuner(true)), bcast.WithTuner(nil)); d.Algorithm != bcast.RingNative {
		t.Errorf("WithTuner(nil) decision = %+v, want default %s", d, bcast.RingNative)
	}
	// A negative per-call segment size fails the call loudly instead of
	// silently running the default pipeline.
	ctx := context.Background()
	err := cl.Run(ctx, func(c bcast.Comm) error {
		return c.Bcast(ctx, make([]byte, 1024), 0,
			bcast.WithAlgorithm(bcast.RingOptSeg), bcast.WithSegSize(-8192))
	})
	if err == nil || !strings.Contains(err.Error(), "negative segment size") {
		t.Errorf("negative per-call seg size not rejected: %v", err)
	}
	// Inside Run, Comm.Decision agrees with Cluster.Decision.
	if err := cl.Run(ctx, func(c bcast.Comm) error {
		if d := c.Decision(1 << 20); d.Algorithm != bcast.RingNative {
			return errors.New("Comm.Decision diverged from Cluster.Decision: " + d.Algorithm)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

// TestTrafficInterNodeSaving reproduces the paper's claim as a
// measurement through the public API alone: with a multi-node placement
// the tuned ring moves strictly fewer inter-node bytes than the native
// ring for a long message.
func TestTrafficInterNodeSaving(t *testing.T) {
	ctx := context.Background()
	const np, n, root = 12, 1 << 18, 0
	inter := map[string]int64{}
	for _, algo := range []string{bcast.RingNative, bcast.RingOpt} {
		cl := mustCluster(t, bcast.Procs(np), bcast.Placement("blocked:4"),
			bcast.Algorithm(algo), bcast.TraceTraffic())
		err := cl.Run(ctx, func(c bcast.Comm) error {
			buf := make([]byte, n)
			return c.Bcast(ctx, buf, root)
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		tr, ok := cl.Traffic()
		if !ok {
			t.Fatalf("%s: traffic tracing not enabled", algo)
		}
		if tr.Messages == 0 || tr.Bytes == 0 {
			t.Fatalf("%s: empty traffic stats: %+v", algo, tr)
		}
		if tr.InterMessages+tr.IntraMessages != tr.Messages {
			t.Errorf("%s: intra+inter != total: %+v", algo, tr)
		}
		inter[algo] = tr.InterBytes
	}
	if inter[bcast.RingOpt] >= inter[bcast.RingNative] {
		t.Errorf("tuned ring saved no inter-node bytes: opt %d >= native %d",
			inter[bcast.RingOpt], inter[bcast.RingNative])
	}

	// Without the option, Traffic reports absence.
	cl := mustCluster(t, bcast.Procs(2))
	if _, ok := cl.Traffic(); ok {
		t.Error("Traffic reported stats without TraceTraffic")
	}
}

func TestSliceHelpers(t *testing.T) {
	ctx := context.Background()
	cl := mustCluster(t, bcast.Procs(6))
	err := cl.Run(ctx, func(c bcast.Comm) error {
		// BcastSlice: float64 payload from rank 1.
		vals := make([]float64, 100)
		if c.Rank() == 1 {
			for i := range vals {
				vals[i] = float64(i) / 7
			}
		}
		if err := bcast.BcastSlice(ctx, c, vals, 1); err != nil {
			return err
		}
		for i := range vals {
			if vals[i] != float64(i)/7 {
				return errors.New("BcastSlice corrupted payload")
			}
		}

		// ScatterSlice + GatherSlice round trip int32 chunks.
		var send []int32
		if c.Rank() == 0 {
			send = make([]int32, 3*c.Size())
			for i := range send {
				send[i] = int32(i)
			}
		}
		mine := make([]int32, 3)
		if err := bcast.ScatterSlice(ctx, c, send, mine, 0); err != nil {
			return err
		}
		for j, v := range mine {
			if v != int32(3*c.Rank()+j) {
				return errors.New("ScatterSlice delivered wrong chunk")
			}
			mine[j] = v * 10
		}
		var back []int32
		if c.Rank() == 0 {
			back = make([]int32, 3*c.Size())
		}
		if err := bcast.GatherSlice(ctx, c, mine, back, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i, v := range back {
				if v != int32(i*10) {
					return errors.New("GatherSlice reassembled wrong data")
				}
			}
		}

		// AllgatherSlice: every rank contributes its rank id.
		all := make([]uint16, c.Size())
		if err := bcast.AllgatherSlice(ctx, c, []uint16{uint16(c.Rank())}, all); err != nil {
			return err
		}
		for i, v := range all {
			if v != uint16(i) {
				return errors.New("AllgatherSlice wrong layout")
			}
		}

		// AllreduceFloat64 sums rank ids: 0+1+...+5 = 15.
		out := make([]float64, 1)
		if err := c.AllreduceFloat64(ctx, []float64{float64(c.Rank())}, out, bcast.OpSum); err != nil {
			return err
		}
		if out[0] != 15 {
			return errors.New("AllreduceFloat64 wrong sum")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Length validation fails loudly at the root.
	err = cl.Run(ctx, func(c bcast.Comm) error {
		recv := make([]int32, 2)
		err := bcast.ScatterSlice(ctx, c, make([]int32, 5), recv, 0)
		if c.Rank() == 0 {
			if err == nil {
				return errors.New("short scatter send not rejected")
			}
			return nil
		}
		// Non-root ranks abort via the root's failure; any error is fine.
		return nil
	})
	if err == nil {
		t.Error("mismatched ScatterSlice run reported no error")
	}
}

// TestReduceUnknownOp: an operator outside OpSum..OpMin fails both
// reductions on every rank instead of leaving an unreduced result.
func TestReduceUnknownOp(t *testing.T) {
	ctx := context.Background()
	cl := mustCluster(t, bcast.Procs(4))
	err := cl.Run(ctx, func(c bcast.Comm) error {
		in, out := []float64{1}, make([]float64, 1)
		if err := c.AllreduceFloat64(ctx, in, out, bcast.Op(42)); err == nil {
			return fmt.Errorf("rank %d: AllreduceFloat64 accepted Op(42)", c.Rank())
		}
		if err := c.ReduceFloat64(ctx, in, out, bcast.Op(42), 0); err == nil {
			return fmt.Errorf("rank %d: ReduceFloat64 accepted Op(42)", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmsListing(t *testing.T) {
	algos := bcast.Algorithms()
	if len(algos) < 9 {
		t.Fatalf("registry listing too short: %d entries", len(algos))
	}
	found := map[string]bcast.AlgorithmInfo{}
	for _, a := range algos {
		if a.Name == "" || a.Summary == "" {
			t.Errorf("incomplete listing entry: %+v", a)
		}
		found[a.Name] = a
	}
	for _, want := range []string{bcast.Binomial, bcast.RingNative, bcast.RingOpt, bcast.RingOptSeg, bcast.SMPOpt} {
		if _, ok := found[want]; !ok {
			t.Errorf("algorithm %q missing from listing", want)
		}
	}
	if info := found[bcast.SMPOpt]; len(info.Constraints) == 0 {
		t.Errorf("SMPOpt listing lost its constraints: %+v", info)
	}
}

func TestSendRecv(t *testing.T) {
	ctx := context.Background()
	cl := mustCluster(t, bcast.Procs(2))
	err := cl.Run(ctx, func(c bcast.Comm) error {
		if c.Rank() == 0 {
			return c.Send(ctx, []byte("ping"), 1, 42)
		}
		buf := make([]byte, 8)
		st, err := c.Recv(ctx, buf, bcast.AnySource, bcast.AnyTag)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 42 || st.Count != 4 || string(buf[:st.Count]) != "ping" {
			return errors.New("wrong message or status")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTuneTableDrivesSelection writes a table by hand and checks the
// facade both loads it and lets it win over the default dispatch.
func TestTuneTableDrivesSelection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.json")
	table := `{
  "name": "test-table",
  "rules": [
    {"min_bytes": 1, "decision": {"algorithm": "` + bcast.RingOptSeg + `", "seg_size": 4096}}
  ]
}`
	if err := writeFile(path, table); err != nil {
		t.Fatal(err)
	}
	cl := mustCluster(t, bcast.Procs(8), bcast.TuneTable(path))
	d := cl.Decision(1 << 20)
	if d.Algorithm != bcast.RingOptSeg || d.SegSize != 4096 {
		t.Fatalf("table-driven decision = %+v, want %s@4096", d, bcast.RingOptSeg)
	}
	// And it actually runs.
	ctx := context.Background()
	if err := cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, 1<<16)
		if c.Rank() == 0 {
			buf[0] = 1
		}
		if err := c.Bcast(ctx, buf, 0); err != nil {
			return err
		}
		if buf[0] != 1 {
			return errors.New("table-dispatched broadcast corrupted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
