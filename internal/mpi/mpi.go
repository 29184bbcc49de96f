// Package mpi defines the MPI-like programming interface the reproduction
// is written against.
//
// Go has no viable MPI bindings, so the paper's user-level broadcast
// implementations are ported onto this minimal, faithful subset of the
// MPI point-to-point API: blocking Send/Recv with (source, tag, context)
// matching and wildcards, combined Sendrecv with concurrent halves, and
// communicator Split. The methods beside them serve the collectives:
// early-posted receives (Prepost, whose Request a caller Waits on), late
// sends (Presend, completed together by WaitPresends), kept edges
// (Bind), tag streams, bound contexts, operation spans and traffic rows. One engine implements the interface: internal/engine, a real runtime
// (pluggable rank execution — goroutine-per-rank or a pooled cooperative
// scheduler — eager and rendezvous protocols, real buffer copies, in one
// process or split across several over internal/transport) used for
// correctness tests, user-level wall-clock benchmarks and the examples.
// Its blocking calls start a request and Wait on it, as an early-posted
// receive does, so the two cannot behave differently, and its
// communicator records its own traffic when internal/trace asks it to.
//
// Buffer semantics follow MPI_BYTE transfers: payloads are byte slices,
// a receive completes with the actual transferred count in Status, and a
// payload longer than the receive buffer is a truncation error.
package mpi

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/metrics"
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

// AdvanceTagStream moves c to the next collective tag stream. It is
// c.NextTagStream() without the stream id, kept for the benchmark
// module, which calls it.
func AdvanceTagStream(c Comm) { c.NextTagStream() }

// Edge is one (direction, peer, base collective tag) of a rank's
// schedule, which moves Count messages of at most MaxLen bytes per run.
type Edge struct {
	Peer, Tag     int
	Send          bool
	Count, MaxLen int
}

// Binding is what Comm.Bind returns. Engage readies it for one run on c, its
// tags in c's current stream, and reports false for a communicator or
// run it was not made on. Until Disengage, Move runs one op like
// Sendrecv: a send of sbuf on edge send and a receive into rbuf on edge
// recv, named by their index in Bind's slice, -1 for none. Unbound edges
// carry ordinary messages, the receive posted before the send starts.
// Release, between runs, gives the edges back for good: a schedule that
// rebinds or is freed releases its old Binding and uses it no more.
type Binding interface {
	Engage(c Comm) bool
	Move(send int, sbuf []byte, recv int, rbuf []byte) (Status, error)
	Disengage()
	Release()
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

// Request is a pending operation, like MPI_Request.
type Request interface {
	// Wait blocks until the operation completes. For receives, the
	// Status carries the resolved source, tag and byte count; for sends
	// it reports the payload size. An operation ended by the world's
	// abort or a cancelled context completes with that error. Wait is
	// idempotent.
	Wait() (Status, error)
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

	// Split partitions the communicator: ranks passing equal colors join
	// a new communicator, ordered by (key, old rank). A color of
	// Undefined yields a nil Comm. Split is collective: every rank of
	// this communicator must call it.
	Split(color, key int) (Comm, error)

	// Topology returns the node placement of this communicator's ranks
	// (indexed by communicator rank).
	Topology() *topology.Map

	// NextTagStream advances the communicator's collective tag stream
	// and returns the stream id the next collective runs under. Every
	// rank of the communicator must call it in the same collective order
	// (which the MPI collective-call ordering rule already guarantees),
	// so all ranks agree on each operation's stream without
	// communicating.
	NextTagStream() int
	// Prepost posts a receive of buf from rank from with tag tag into a
	// request the caller keeps across operations, and returns it to Wait
	// on, so a collective that posts the same receives every time
	// allocates nothing to do so. req is nil or a request an earlier
	// Prepost returned; once that request has completed, the
	// communicator re-arms it instead of allocating one. Prepost may
	// decline — a source it reaches over a wire, a wildcard, an invalid
	// argument — and then ok is false, nothing is posted and req comes
	// back unchanged, for the caller to keep and to post that receive
	// the ordinary way.
	Prepost(req Request, buf []byte, from, tag int) (r Request, ok bool)
	// Presend starts a send of buf to rank to with tag tag and leaves
	// its completion to WaitPresends. The caller promises not to write
	// buf until then, so the communicator never copies the payload
	// aside: the receiver copies it once, straight out of buf, whenever
	// it posts the receive. The send counts in the traffic row once it
	// completes. Presend may decline — a message it would not copy aside
	// anyway (one it sends by rendezvous, or to a destination it reaches
	// over a wire), an invalid argument — and then reports false, sends
	// nothing, and the caller sends that message the ordinary way.
	Presend(buf []byte, to, tag int) bool
	// WaitPresends blocks until every send Presend started on the
	// calling rank has completed, and returns the first error among
	// them; the buffers are then the caller's again. A rank calls it
	// before its body returns.
	WaitPresends() error
	// Bind sets up, once, the edges a kept schedule (a persistent one,
	// or one a per-call cache holds) sends and receives on, so that each
	// run of it moves their messages without matching them. It takes
	// every edge of the calling rank's schedule and returns the Binding
	// to engage around each run, or nil when it bound none; then the
	// schedule runs on the communicator as before. Every rank must Bind
	// its kept schedules on a communicator in the same order, as it
	// calls the collectives they run: the two ends of an edge meet by
	// that order. Bind does not keep edges.
	Bind(edges []Edge) Binding
	// WithContext returns a view of the same communicator whose blocking
	// calls additionally observe ctx: cancellation or deadline expiry
	// unblocks them promptly. Because a collective left half-finished
	// poisons every participant, a fired context tears the whole world
	// down (all ranks' pending operations return an error wrapping
	// ErrAborted and the context's cause) rather than abandoning one
	// rank's operation in place.
	WithContext(ctx context.Context) Comm
	// SpanRing returns the calling rank's operation-span ring, where the
	// collectives record one span per completed operation; nil when
	// spans are disabled.
	SpanRing() *metrics.SpanRing
	// WithTraffic returns a view of the communicator that counts into
	// row every message it sends and every receive it completes, as do
	// the views later made from that one (WithContext, Split); a nil row
	// counts nothing.
	WithTraffic(row *metrics.TrafficRow) Comm
}

// WithContext binds ctx to c, and returns c unchanged for a nil or
// never-canceled context, which needs no binding.
func WithContext(ctx context.Context, c Comm) Comm {
	if ctx == nil || ctx.Done() == nil {
		return c
	}
	return c.WithContext(ctx)
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
