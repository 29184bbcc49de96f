package engine

import (
	"sync"

	"repro/internal/bufpool"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// The engine's per-message objects — eager payload copies, unexpected-
// queue envelopes, posted receives, rendezvous states and the requests
// of the engine's own blocking calls — are recycled through the free lists
// below, so a long-lived world's steady state allocates nothing per
// message no matter how many segments a pipelined broadcast splits
// into.
//
// # Ownership rules
//
// Every pooled object has exactly one owner at a time, and only the
// owner may return it:
//
//   - Eager payload buffers (bufpool.Buf): the sender acquires and
//     fills one; ownership transfers to the receiver with the envelope;
//     the receiver releases it after copying the payload out.
//   - envelopes: owned by the destination endpoint's queue; the
//     receiver that dequeues one (matchArrival) releases it after
//     reading its fields.
//   - posted receives: enqueued by the receiver; a matching sender
//     borrows one only long enough to deliver into pr.done — a remote
//     message placed fragment by fragment (remoteHandler.Claim) from
//     its first fragment to its last. The receiver's request recycles
//     it after consuming the result from the channel — and only then,
//     because until that receive the sender may still be mid-delivery.
//     On the abort/cancel paths the object is abandoned to the garbage
//     collector instead.
//   - rdvStates: created by the sender; the receiver borrows one to
//     copy out of rdv.buf and signal rdv.done, after which it must not
//     touch it. The sender's request recycles it after consuming the
//     done signal (clean completion only).
//   - requests: recycled only by the engine's own blocking wrappers
//     (send, recv, Sendrecv), which provably drop every reference
//     after Wait. Requests returned to callers by Isend/Irecv are
//     user-owned and never recycled.
//
// The channels inside posted and rdvState are allocated once per
// object and reused across recycles: each use moves exactly one value
// through them (rendezvous completion is a buffered send, not a
// close), so a recycled object's channel is always empty.

var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

var postedPool = sync.Pool{
	New: func() any { return &posted{done: make(chan recvResult, 1)} },
}

var rdvPool = sync.Pool{
	New: func() any { return &rdvState{done: make(chan struct{}, 1)} },
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// newEagerEnvelope builds a pooled envelope carrying a pooled copy of
// buf (the eager protocol's engine-owned payload).
func newEagerEnvelope(ctx int64, src, srcWorld, tag int, buf []byte) *envelope {
	data := bufpool.Get(len(buf))
	copy(data.B, buf)
	env := envelopePool.Get().(*envelope)
	env.ctx, env.src, env.srcWorld, env.tag = ctx, src, srcWorld, tag
	env.data, env.dbuf, env.rdv = data.B, data, nil
	return env
}

// newRdvEnvelope builds a pooled envelope referencing the sender's own
// buffer through a pooled rdvState.
func newRdvEnvelope(ctx int64, src, srcWorld, tag int, buf []byte) *envelope {
	rdv := rdvPool.Get().(*rdvState)
	rdv.buf = buf
	env := envelopePool.Get().(*envelope)
	env.ctx, env.src, env.srcWorld, env.tag = ctx, src, srcWorld, tag
	env.data, env.dbuf, env.rdv = nil, nil, rdv
	return env
}

// newRemoteEnvelope builds a pooled envelope for a transport-delivered
// message, taking ownership of its payload buffer. A rendezvous payload
// keeps its correlation id for the consumption ack.
func newRemoteEnvelope(m *transport.Message) *envelope {
	env := envelopePool.Get().(*envelope)
	env.ctx, env.src, env.srcWorld, env.tag = m.Ctx, m.Src, m.SrcWorld, m.Tag
	env.data, env.dbuf, env.rdv = m.Data, m.Buf, nil
	if m.Kind == transport.Rdv {
		env.ackID = m.MsgID
	}
	return env
}

// putEnvelope recycles a consumed envelope, releasing its eager payload
// buffer (if any). The caller must have read every field it needs and,
// for rendezvous envelopes, must recycle the rdvState separately (it
// belongs to the sender).
func putEnvelope(env *envelope) {
	if env.dbuf != nil {
		env.dbuf.Release()
	}
	env.data, env.dbuf, env.rdv, env.ackID = nil, nil, nil, 0
	envelopePool.Put(env)
}

// getPosted builds a pooled posted receive. Its done channel is reused
// across recycles and is empty on return.
func getPosted(w *World, ctx int64, src, tag int, buf []byte) *posted {
	pr := postedPool.Get().(*posted)
	pr.w, pr.ctx, pr.src, pr.tag, pr.buf = w, ctx, src, tag, buf
	return pr
}

// putPosted recycles a posted receive. Legal only after the owner
// received the delivery from pr.done — a sender may otherwise still be
// about to send into the channel.
func putPosted(pr *posted) {
	pr.buf, pr.w = nil, nil
	postedPool.Put(pr)
}

// putRdv recycles a rendezvous state. Legal only for the sender, after
// it consumed the done signal.
func putRdv(rdv *rdvState) {
	rdv.buf = nil
	rdvPool.Put(rdv)
}

// completedRequest returns an already-finished pooled request.
func completedRequest(st mpi.Status, err error) *request {
	r := requestPool.Get().(*request)
	*r = request{complete: true, st: st, err: err}
	return r
}

// putRequest recycles a finished request. Only the engine's own
// blocking wrappers may call it (they are the sole holders of their
// requests); requests handed to users via Isend/Irecv are never
// recycled. Incomplete requests are left to the garbage collector —
// their completion source may still fire.
func putRequest(r *request) {
	if r == nil || !r.complete {
		return
	}
	*r = request{}
	requestPool.Put(r)
}
