// Package mpi defines the MPI-like programming interface the reproduction
// is written against.
//
// Go has no viable MPI bindings, so the paper's user-level broadcast
// implementations are ported onto this minimal, faithful subset of the
// MPI point-to-point API: blocking Send/Recv with (source, tag, context)
// matching and wildcards, combined Sendrecv with concurrent halves,
// nonblocking Isend/Irecv with Request Wait/Done, and communicator Split.
// One engine implements the interface: internal/engine, a real runtime
// (pluggable rank execution — goroutine-per-rank or a pooled cooperative
// scheduler — eager and rendezvous protocols, real buffer copies, in one
// process or split across several over internal/transport) used for
// correctness tests, user-level wall-clock benchmarks and the examples.
// Its blocking calls are the nonblocking ones followed by Wait, so the
// two families cannot behave differently, and its communicator records
// its own traffic when internal/trace asks it to.
//
// Buffer semantics follow MPI_BYTE transfers: payloads are byte slices,
// a receive completes with the actual transferred count in Status, and a
// payload longer than the receive buffer is a truncation error.
package mpi

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/topology"
)

// Wildcard and sentinel values, mirroring MPI_ANY_SOURCE, MPI_ANY_TAG and
// MPI_UNDEFINED.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -2
	// Undefined, passed as the color of Split, excludes the caller from
	// every resulting communicator (Split returns a nil Comm).
	Undefined = -32766
)

// MaxUserTag is the largest tag application code may use; larger tags are
// reserved for the collective algorithms (see internal/core).
const MaxUserTag = 0x7EFF

// The reserved collective tag space. Collective algorithms stamp each
// message with a phase tag from the base block [CollTagBase,
// CollTagBase+TagStreamStride); the engine then namespaces every
// in-flight collective by offsetting those base tags into one of
// NumTagStreams per-operation streams (stream s maps base tag t to
// t + s*TagStreamStride). Streams are what let independent collectives
// overlap on one communicator without their fixed phase tags colliding:
// the Nth collective issued on a communicator matches only messages of
// the Nth collective, never a straggler from the (N-1)th or an eager
// early arrival from the (N+1)th.
const (
	// CollTagBase is the first reserved collective tag (MaxUserTag+1).
	CollTagBase = MaxUserTag + 1
	// TagStreamStride is the width of one tag stream: the number of
	// distinct phase tags a single collective operation may use.
	TagStreamStride = 0x40
	// NumTagStreams is how many concurrent collective streams one
	// communicator context distinguishes before stream ids wrap. Wrapping
	// is safe far earlier than this: a rank has at most one blocking
	// collective in flight per communicator, so two live collectives are
	// never NumTagStreams apart.
	NumTagStreams = 256
	// MaxTag is the largest tag the engine will ever carry: the last tag
	// of the last stream.
	MaxTag = CollTagBase + NumTagStreams*TagStreamStride - 1
)

// StreamTag maps a base collective tag onto stream s. Tags outside the
// base block (user tags, wildcards) are returned unchanged.
func StreamTag(tag, s int) int {
	if tag < CollTagBase || tag >= CollTagBase+TagStreamStride {
		return tag
	}
	return tag + s*TagStreamStride
}

// BaseTag folds a streamed collective tag back to its base-block phase
// tag (the inverse of StreamTag for any stream); tags outside the
// reserved space are returned unchanged.
func BaseTag(tag int) int {
	if tag < CollTagBase || tag > MaxTag {
		return tag
	}
	return CollTagBase + (tag-CollTagBase)%TagStreamStride
}

// TagStreamer is the optional capability of communicators that
// namespace collective operations into per-operation tag streams.
// NextTagStream advances the communicator's stream counter and returns
// the stream id the next collective should run under; every rank of the
// communicator must call it in the same collective order (which the MPI
// collective-call ordering rule already guarantees), so all ranks agree
// on each operation's stream without communicating.
type TagStreamer interface {
	NextTagStream() int
}

// AdvanceTagStream moves c to the next collective tag stream when the
// communicator supports streams, and is a no-op otherwise. Collective
// implementations call it once on entry.
func AdvanceTagStream(c Comm) {
	if ts, ok := c.(TagStreamer); ok {
		ts.NextTagStream()
	}
}

// Preposter is the optional capability of communicators that can post a
// receive into a request the caller keeps across operations, so a
// collective that posts the same receives every time allocates nothing
// to do so. Prepost posts a receive of buf from rank from with tag tag,
// like Irecv. req is nil or a request an earlier Prepost returned; once
// that request has completed, the communicator re-arms it instead of
// allocating one. ok is false when the communicator declines — a source
// it reaches over a wire, a wildcard, an invalid argument — and then
// nothing is posted and req comes back unchanged, for the caller to keep
// and to post that receive the ordinary way.
type Preposter interface {
	Prepost(req Request, buf []byte, from, tag int) (r Request, ok bool)
}

// Binder is the optional capability of communicators that can set up,
// once, the edges a kept schedule sends and receives on, so that each
// run of it moves their messages without matching them. Bind takes every
// edge of the calling rank's schedule and returns the Binding to engage
// around each run, or nil when it bound none; the rest travel as
// ordinary messages. Every rank must Bind its kept schedules on a
// communicator in the same order, as it calls the collectives they run.
type Binder interface {
	Bind(edges []Edge) Binding
}

// Edge is one (direction, peer, base collective tag) of a rank's
// schedule, which moves Count messages of at most MaxLen bytes per run.
type Edge struct {
	Peer, Tag     int
	Send          bool
	Count, MaxLen int
}

// Binding is what Bind returns. Engage routes the rank's sends and
// receives on the bound edges, their tags in c's current stream, over
// them until Disengage; it reports false, and routes nothing, for a
// communicator or run the binding was not made on.
type Binding interface {
	Engage(c Comm) bool
	Disengage()
}

// CheckUserTag validates a tag at the application boundary: user code
// may use [0, MaxUserTag] (plus the AnyTag wildcard when any is true);
// everything above is reserved for the collective streams.
func CheckUserTag(tag int, any bool) error {
	if any && tag == AnyTag {
		return nil
	}
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("%w: %d (user tags are 0..%#x; higher tags are reserved for collectives)", ErrTag, tag, MaxUserTag)
	}
	return nil
}

// Status describes a completed receive, like MPI_Status.
type Status struct {
	// Source is the rank that sent the message (resolved even for
	// AnySource receives).
	Source int
	// Tag is the message tag (resolved even for AnyTag receives).
	Tag int
	// Count is the number of payload bytes transferred.
	Count int
}

// Sentinel errors. Engine errors wrap these so callers can use errors.Is.
var (
	// ErrTruncate reports a message longer than the posted receive buffer.
	ErrTruncate = errors.New("message truncated")
	// ErrRank reports a peer rank outside [0, Size).
	ErrRank = errors.New("rank out of range")
	// ErrTag reports an invalid tag (negative non-wildcard, or above
	// MaxUserTag+reserved space).
	ErrTag = errors.New("invalid tag")
	// ErrAborted reports that the world was torn down (another rank
	// failed, or deadlock was detected) while this operation was blocked.
	ErrAborted = errors.New("world aborted")
	// ErrDeadlock reports that the runtime detected a global deadlock:
	// every live rank was blocked in a communication call with no
	// progress possible.
	ErrDeadlock = errors.New("deadlock detected")
)

// Request is a pending nonblocking operation, like MPI_Request.
type Request interface {
	// Wait blocks until the operation completes. For receives, the
	// Status carries the resolved source, tag and byte count; for sends
	// it reports the payload size. Wait is idempotent.
	Wait() (Status, error)
	// Done reports completion without blocking (MPI_Test). An operation
	// ended by the world's abort or a cancelled context is complete —
	// Wait then returns that error — so a polling loop always terminates.
	Done() bool
}

// Comm is a communicator: an isolated message-passing context over a
// fixed group of ranks, like MPI_Comm.
//
// All methods are called from the owning rank's goroutine. Implementations
// must support concurrent use of distinct ranks' Comms, and the two halves
// of Sendrecv must progress independently (a ring of Sendrecvs must not
// deadlock).
type Comm interface {
	// Rank returns the caller's rank within this communicator.
	Rank() int
	// Size returns the number of ranks in this communicator.
	Size() int

	// Send delivers buf to rank `to` with the given tag, blocking until
	// the buffer may be reused (eager copy taken, or rendezvous transfer
	// complete).
	Send(buf []byte, to, tag int) error
	// Recv blocks until a matching message (from, tag; wildcards allowed)
	// arrives and is copied into buf. The returned Status carries the
	// resolved source, tag and byte count.
	Recv(buf []byte, from, tag int) (Status, error)
	// Sendrecv executes a send and a receive concurrently and returns
	// when both complete, like MPI_Sendrecv.
	Sendrecv(sendBuf []byte, to, sendTag int, recvBuf []byte, from, recvTag int) (Status, error)

	// Isend starts a nonblocking send. The buffer must not be modified
	// until the request completes. Messages between one (sender,
	// receiver, tag) triple are non-overtaking in issue order.
	Isend(buf []byte, to, tag int) (Request, error)
	// Irecv posts a nonblocking receive; the buffer must not be read
	// until the request completes.
	Irecv(buf []byte, from, tag int) (Request, error)
	// Iprobe reports, without consuming it, whether a message matching
	// (from, tag; wildcards allowed) has arrived, and its envelope if so
	// (MPI_Iprobe).
	Iprobe(from, tag int) (Status, bool, error)

	// Split partitions the communicator: ranks passing equal colors join
	// a new communicator, ordered by (key, old rank). A color of
	// Undefined yields a nil Comm. Split is collective: every rank of
	// this communicator must call it.
	Split(color, key int) (Comm, error)

	// Topology returns the node placement of this communicator's ranks
	// (indexed by communicator rank).
	Topology() *topology.Map
}

// Contexter is the optional capability of communicators that can bind a
// context.Context to their operations. WithContext returns a view of the
// same communicator whose blocking calls additionally observe ctx:
// cancellation or deadline expiry unblocks them promptly. Because a
// collective left half-finished poisons every participant, a fired
// context tears the whole world down (all ranks' pending operations
// return an error wrapping ErrAborted and the context's cause) rather
// than abandoning one rank's operation in place.
type Contexter interface {
	WithContext(ctx context.Context) Comm
}

// WithContext binds ctx to c when the communicator supports it and
// returns c unchanged otherwise (including for a nil or never-canceled
// context, which needs no binding).
func WithContext(ctx context.Context, c Comm) Comm {
	if ctx == nil || ctx.Done() == nil {
		return c
	}
	if cc, ok := c.(Contexter); ok {
		return cc.WithContext(ctx)
	}
	return c
}

// WaitAll waits for every request, returning the statuses and the first
// error encountered (all requests are waited regardless, like
// MPI_Waitall's error semantics).
func WaitAll(reqs ...Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		st, err := r.Wait()
		sts[i] = st
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return sts, firstErr
}

// CheckPeer validates a peer rank against a communicator size, allowing
// wildcard when any is true.
func CheckPeer(rank, size int, any bool) error {
	if any && rank == AnySource {
		return nil
	}
	if rank < 0 || rank >= size {
		return fmt.Errorf("%w: %d (size %d)", ErrRank, rank, size)
	}
	return nil
}

// CheckTag validates a tag, allowing the AnyTag wildcard when any is
// true. The engine carries tags up to MaxTag: the user range plus the
// reserved collective base block (which stream translation then offsets
// within [CollTagBase, MaxTag]).
func CheckTag(tag int, any bool) error {
	if any && tag == AnyTag {
		return nil
	}
	if tag < 0 || tag > MaxTag {
		return fmt.Errorf("%w: %d (valid tags are 0..%#x)", ErrTag, tag, MaxTag)
	}
	return nil
}
