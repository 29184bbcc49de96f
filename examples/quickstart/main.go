// Quickstart: run 8 ranks in-process, broadcast a message from rank 0
// through the public bcast facade, and verify every rank received it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/bcast"
)

func main() {
	ctx := context.Background()
	const np, root = 8, 0
	message := []byte("hello from the tuned scatter-ring-allgather broadcast")

	cl, err := bcast.NewCluster(ctx, bcast.Procs(np))
	if err != nil {
		log.Fatal(err)
	}

	// The default dispatch resolves per message size and rank count;
	// ask the selection path what it would actually run here rather
	// than guessing.
	d := cl.Decision(len(message))
	fmt.Printf("default dispatch for %d bytes over %d ranks: %s", len(message), np, d.Algorithm)
	if d.SegSize > 0 {
		fmt.Printf(" (seg %d)", d.SegSize)
	}
	fmt.Println()

	// Each rank notes its line; they print after the run, in rank order
	// rather than in whatever order the ranks finish.
	got := make([]string, np)
	err = cl.Run(ctx, func(c bcast.Comm) error {
		buf := make([]byte, len(message))
		if c.Rank() == root {
			copy(buf, message)
		}

		// Pin the paper's non-enclosed ring for this call to see the
		// tuned algorithm itself, whatever the dispatch above picked.
		if err := c.Bcast(ctx, buf, root, bcast.WithAlgorithm(bcast.RingOpt)); err != nil {
			return err
		}

		if string(buf) != string(message) {
			return fmt.Errorf("rank %d: corrupted broadcast: %q", c.Rank(), buf)
		}
		got[c.Rank()] = fmt.Sprintf("rank %d received: %s", c.Rank(), buf)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range got {
		fmt.Println(line)
	}
}
