package bcast

import (
	"context"
	"fmt"

	"repro/internal/collective"
)

// Scalar constrains the typed helpers' elements to fixed-layout
// numerics, which travel as their raw bytes. The typed collectives and
// the reductions send native byte order: a mixed-endian world is
// unsupported.
type Scalar = collective.Scalar

// BcastSlice broadcasts s from root: the root's elements overwrite
// every other rank's. All ranks must pass slices of equal length.
func BcastSlice[T Scalar](ctx context.Context, c Comm, s []T, root int, opts ...CallOption) error {
	return c.Bcast(ctx, collective.AsBytes(s), root, opts...)
}

// ScatterSlice distributes consecutive len(recv)-element pieces of send
// so rank i receives piece i. send is significant only on the root,
// where its length must be Size*len(recv).
func ScatterSlice[T Scalar](ctx context.Context, c Comm, send, recv []T, root int) error {
	if c.Rank() == root && len(send) != c.Size()*len(recv) {
		return fmt.Errorf("bcast: scatter send has %d elements, want Size*len(recv) = %d", len(send), c.Size()*len(recv))
	}
	piece := collective.AsBytes(recv)
	return c.Scatter(ctx, collective.AsBytes(send), len(piece), piece, root)
}

// GatherSlice collects each rank's send into recv on the root (length
// Size*len(send), significant only there), rank i's contribution at
// element offset i*len(send).
func GatherSlice[T Scalar](ctx context.Context, c Comm, send, recv []T, root int) error {
	if c.Rank() == root && len(recv) != c.Size()*len(send) {
		return fmt.Errorf("bcast: gather recv has %d elements, want Size*len(send) = %d", len(recv), c.Size()*len(send))
	}
	piece := collective.AsBytes(send)
	return c.Gather(ctx, piece, len(piece), collective.AsBytes(recv), root)
}

// AllgatherSlice is GatherSlice delivered to every rank; recv must have
// Size*len(send) elements on all ranks.
func AllgatherSlice[T Scalar](ctx context.Context, c Comm, send, recv []T) error {
	if len(recv) != c.Size()*len(send) {
		return fmt.Errorf("bcast: allgather recv has %d elements, want Size*len(send) = %d", len(recv), c.Size()*len(send))
	}
	piece := collective.AsBytes(send)
	return c.Allgather(ctx, piece, len(piece), collective.AsBytes(recv))
}
