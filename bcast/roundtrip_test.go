package bcast_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/bcast"
	"repro/internal/collective"
	"repro/internal/measure"
	"repro/internal/tune"
)

// TestAutoTuneTableRoundTrip drives the full loop the CLI workflow
// promises: auto-tune on the real engine exactly as `bcast tune engine`
// does (same tune.AutoTune entry point), save the
// JSON table, load it back through the public bcast.TuneTable option,
// and check the facade's selection is the table's verdict cell by cell.
func TestAutoTuneTableRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("engine auto-tune sweep in -short mode")
	}
	const np = 4
	sizes := []int{1 << 13, 1 << 14}
	eng := measure.EngineMeasurer{Warmup: 1, Reps: 2, Stat: measure.StatMin}
	table, winners, err := tune.AutoTune(collective.Candidates(), eng, tune.SweepConfig{
		Procs: []int{np}, Sizes: sizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rules) == 0 || len(winners) != len(sizes) {
		t.Fatalf("degenerate tuning result: %d rules, %d winners", len(table.Rules), len(winners))
	}
	path := filepath.Join(t.TempDir(), "engine-table.json")
	if err := tune.SaveTable(table, path); err != nil {
		t.Fatal(err)
	}

	cl, err := bcast.NewCluster(context.Background(), bcast.Procs(np), bcast.TuneTable(path))
	if err != nil {
		t.Fatal(err)
	}
	// The facade must resolve every tuned grid point to the winner the
	// engine measured.
	for _, w := range winners {
		got := cl.Decision(w.Bytes)
		if got.Algorithm != w.Decision.Algorithm || got.SegSize != w.Decision.SegSize {
			t.Errorf("size %d: facade decision %+v, table winner %+v", w.Bytes, got, w.Decision)
		}
	}
	// And the table-driven broadcast really runs through the facade.
	ctx := context.Background()
	err = cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, sizes[0])
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := c.Bcast(ctx, buf, 0); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i) {
				return errors.New("tuned broadcast corrupted payload")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
