package bcast

import (
	"context"
	"fmt"

	"repro/internal/collective"
	"repro/internal/mpi"
	"repro/internal/tune"
)

// mpiComm abbreviates the internal communicator interface in signatures
// that cannot mention it publicly.
type mpiComm = mpi.Comm

// Wildcards for Recv, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	// AnySource matches a message from any rank.
	AnySource = mpi.AnySource
	// AnyTag matches a message with any tag.
	AnyTag = mpi.AnyTag
	// MaxUserTag is the largest tag application code may use; larger
	// values are reserved for the collective algorithms (Send and Recv
	// reject them).
	MaxUserTag = mpi.MaxUserTag
	// Undefined, passed as the color of Split, excludes the caller from
	// every resulting communicator.
	Undefined = mpi.Undefined
)

// Status describes a completed receive: the Source and Tag it matched
// (resolved even for AnySource and AnyTag receives) and the Count of
// payload bytes transferred.
type Status = mpi.Status

// callDefaults carries a cluster's selection defaults into each Comm.
type callDefaults struct{ o collective.Options }

// merge applies per-call options over the defaults. With none it
// returns the defaults as they are: applying an option takes o's address
// through an unknown function, which moves o to the heap.
func (d callDefaults) merge(opts []CallOption) collective.Options {
	if len(opts) == 0 {
		return d.o
	}
	o := d.o
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// CallOption overrides the cluster's selection defaults for a single
// call (or a single Decision query).
type CallOption func(*collective.Options)

// WithAlgorithm pins this call to a registered algorithm, bypassing the
// tuner.
func WithAlgorithm(name string) CallOption {
	return func(o *collective.Options) {
		o.Algorithm = name
		o.Tuner = nil
	}
}

// WithSegSize sets this call's pipeline segment size in bytes.
func WithSegSize(n int) CallOption {
	return func(o *collective.Options) { o.SegSize = n }
}

// WithTuner selects this call's algorithm through fn instead of the
// cluster's default; a nil fn selects the default MPICH3 dispatch.
func WithTuner(fn TunerFunc) CallOption {
	return func(o *collective.Options) {
		o.Algorithm = ""
		if fn == nil {
			o.Tuner = nil
			return
		}
		o.Tuner = fn
	}
}

// Comm is one rank's view of a running cluster. It is valid only inside
// the Run invocation that received it, and only on that rank's
// goroutine; once that Run has returned, every communicating method
// fails with ErrStaleHandle. Every communicating method is collective
// unless stated otherwise (all ranks must call it with compatible
// arguments) and takes a context whose cancellation unwinds the whole
// run (see the package documentation).
type Comm struct {
	mc       mpi.Comm
	defaults callDefaults
	// epoch is the Run this Comm (and every Persistent handle built on
	// it) belongs to; nil only for the zero value.
	epoch *runEpoch
	// calls holds the Plans this communicator's per-call collectives
	// bound on this rank; rank holds every such cache of the rank's
	// communicators in this Run, for release when the rank body returns.
	calls *collective.Calls
	rank  *rankCalls
}

// rankCalls is one rank's per-call Plan caches in one Run, its world
// communicator's and one per Split child, and the rank's Persistent
// handles not yet freed.
type rankCalls struct {
	world collective.Calls
	split []*collective.Calls
	kept  []*Persistent
}

// open returns a fresh cache for a Split child.
func (r *rankCalls) open() *collective.Calls {
	k := new(collective.Calls)
	r.split = append(r.split, k)
	return k
}

// release returns every cached Plan to the pool and releases the edges
// of every handle not freed, as Free would: the Run's end retires the
// handle anyway, and its drained edges' cells go back to bufpool for the
// next world's binds instead of to the garbage collector.
func (r *rankCalls) release() {
	r.world.Release()
	for _, k := range r.split {
		k.Release()
	}
	for _, h := range r.kept {
		h.plan.Release()
	}
}

// epochAlive reports whether this Comm's Run is still in progress —
// the precondition for using it or any Persistent handle built on it.
// The zero-alloc fast path is one atomic load.
func (c Comm) epochAlive() error {
	if c.epoch == nil || !c.epoch.done.Load() {
		return nil
	}
	if cause := c.epoch.cause; cause != nil {
		return fmt.Errorf("%w: its run ended with: %w (build handles inside the current Run; a failed run boots a fresh world whose traffic a stale handle must not match)", ErrStaleHandle, cause)
	}
	return fmt.Errorf("%w: its run already finished (build handles inside the current Run)", ErrStaleHandle)
}

// Rank returns the caller's rank, in [0, Size).
func (c Comm) Rank() int { return c.mc.Rank() }

// Size returns the number of ranks.
func (c Comm) Size() int { return c.mc.Size() }

// NumNodes returns the number of distinct nodes hosting the ranks.
func (c Comm) NumNodes() int { return c.mc.Topology().NumNodes() }

// Placement returns the placement classification of the ranks.
func (c Comm) Placement() string { return c.mc.Topology().Kind() }

// bind attaches ctx to the underlying communicator for one operation.
func (c Comm) bind(ctx context.Context) mpi.Comm {
	return mpi.WithContext(ctx, c.mc)
}

// env is the selection environment of an n-byte collective here.
func (c Comm) env(n int) tune.Env {
	return tune.EnvOf(n, c.mc.Size(), c.mc.Topology())
}

// Decision reports which algorithm an n-byte Bcast with the same
// options would run, without moving a byte. Not collective.
func (c Comm) Decision(n int, opts ...CallOption) Decision {
	return c.defaults.merge(opts).Decide(c.env(n))
}

// Bcast broadcasts buf from root: on the root the buffer is the
// message, everywhere else it is overwritten with it. The algorithm is
// selected by the cluster options merged with opts — see the package
// documentation for the selection path. The selection runs on every
// call; the schedule it names is compiled once per (length, root,
// decision) in a Run and kept by this rank for the calls that repeat
// them.
func (c Comm) Bcast(ctx context.Context, buf []byte, root int, opts ...CallOption) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: bcast: %w", err)
	}
	return c.calls.Broadcast(c.bind(ctx), buf, root, c.defaults.merge(opts))
}

// Barrier synchronizes all ranks. Like every collective of a Comm, it
// compiles its schedule once per shape in a Run, as Bcast does.
func (c Comm) Barrier(ctx context.Context) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: barrier: %w", err)
	}
	return c.calls.Barrier(c.bind(ctx))
}

// Send delivers buf to rank to with the given tag (at most MaxUserTag;
// larger tags belong to the collective streams and are rejected here),
// blocking until the buffer may be reused. Not collective — the peer
// must post a matching Recv.
func (c Comm) Send(ctx context.Context, buf []byte, to, tag int) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: send: %w", err)
	}
	if err := mpi.CheckUserTag(tag, false); err != nil {
		return fmt.Errorf("bcast: send: %w", err)
	}
	return c.bind(ctx).Send(buf, to, tag)
}

// Recv blocks until a message matching (from, tag) — wildcards
// AnySource and AnyTag allowed; tags above MaxUserTag rejected —
// arrives and is copied into buf. Not collective.
func (c Comm) Recv(ctx context.Context, buf []byte, from, tag int) (Status, error) {
	if err := c.epochAlive(); err != nil {
		return Status{}, fmt.Errorf("bcast: recv: %w", err)
	}
	if err := mpi.CheckUserTag(tag, true); err != nil {
		return Status{}, fmt.Errorf("bcast: recv: %w", err)
	}
	return c.bind(ctx).Recv(buf, from, tag)
}

// Split partitions the communicator: ranks passing equal colors form a
// new group, ordered by (key, then current rank). It returns this
// rank's view of its new group, or ok=false when color is Undefined
// (the rank opted out). Split is collective — every rank must call it —
// and the returned Comm is live for the remainder of this Run: its
// collectives run concurrently with (and fully isolated from) those of
// the parent and of sibling groups, which is how independent broadcasts
// on disjoint groups pipeline through one cluster.
func (c Comm) Split(ctx context.Context, color, key int) (Comm, bool, error) {
	if err := c.epochAlive(); err != nil {
		return Comm{}, false, fmt.Errorf("bcast: split: %w", err)
	}
	sub, err := c.bind(ctx).Split(color, key)
	if err != nil {
		return Comm{}, false, fmt.Errorf("bcast: split: %w", err)
	}
	if sub == nil {
		return Comm{}, false, nil
	}
	return Comm{mc: sub, defaults: c.defaults, epoch: c.epoch, calls: c.rank.open(), rank: c.rank}, true, nil
}

// Scatter distributes consecutive chunk-byte pieces of send (significant
// only on the root, length Size*chunk) so rank i receives piece i into
// recv (length chunk).
func (c Comm) Scatter(ctx context.Context, send []byte, chunk int, recv []byte, root int) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: scatter: %w", err)
	}
	return c.calls.Scatter(c.bind(ctx), send, chunk, recv, root)
}

// Gather collects each rank's chunk-byte send buffer into recv on the
// root (length Size*chunk, significant only there), rank i's
// contribution at offset i*chunk.
func (c Comm) Gather(ctx context.Context, send []byte, chunk int, recv []byte, root int) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: gather: %w", err)
	}
	return c.calls.Gather(c.bind(ctx), send, chunk, recv, root)
}

// Allgather is Gather delivered to every rank: recv (length Size*chunk)
// holds rank i's send at offset i*chunk on all ranks.
func (c Comm) Allgather(ctx context.Context, send []byte, chunk int, recv []byte) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: allgather: %w", err)
	}
	return c.calls.Allgather(c.bind(ctx), send, chunk, recv)
}

// Op is a reduction operator over float64 vectors.
type Op = collective.Op

// Reduction operators.
const (
	OpSum  = collective.OpSum
	OpProd = collective.OpProd
	OpMax  = collective.OpMax
	OpMin  = collective.OpMin
)

// AllreduceFloat64 combines every rank's in element-wise with op and
// leaves the identical result in out on all ranks. len(in) must equal
// len(out) and match across ranks. out may be in.
func (c Comm) AllreduceFloat64(ctx context.Context, in, out []float64, op Op) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: allreduce: %w", err)
	}
	return c.calls.AllreduceFloat64(c.bind(ctx), in, out, op)
}

// ReduceFloat64 combines every rank's in element-wise with op into out
// on the root (significant only there), where out may be in.
func (c Comm) ReduceFloat64(ctx context.Context, in, out []float64, op Op, root int) error {
	if err := c.epochAlive(); err != nil {
		return fmt.Errorf("bcast: reduce: %w", err)
	}
	return c.calls.ReduceFloat64(c.bind(ctx), in, out, op, root)
}
