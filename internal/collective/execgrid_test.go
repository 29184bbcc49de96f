package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestPooledLargeWorldOptSeg is the scale acceptance point: a np=512
// blocked-placement scatter-ring-allgather-opt-seg broadcast on the
// pooled executor must complete with correct buffers on every rank —
// the world size the goroutine-per-rank substrate was refactored to
// unblock.
func TestPooledLargeWorldOptSeg(t *testing.T) {
	if testing.Short() {
		t.Skip("np=512 world is not a -short test")
	}
	const p = 512
	n := 64 * p // every rank's ring chunk is a few cache lines
	topo := topology.Blocked(p, 32)
	d := tune.Decision{Algorithm: tune.RingOptSeg, SegSize: 4096}
	want := pattern(n)
	err := engine.RunWith(engine.Options{
		NP:       p,
		Topology: topo,
		Executor: engine.Pooled,
		Timeout:  10 * time.Minute,
	}, func(c mpi.Comm) error {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(0xA0 + c.Rank())
		}
		if c.Rank() == 0 {
			copy(buf, want)
		}
		if err := RunDecision(c, buf, 0, d); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch (first diff at %d)", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
