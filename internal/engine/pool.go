package engine

import (
	"sync"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// The engine's per-message objects that outlive the call that made them
// — eager payload copies, unexpected-queue envelopes, posted receives and
// rendezvous states — are recycled through the free lists below, so a
// long-lived world's steady state allocates nothing per message no
// matter how many segments a pipelined broadcast splits into. A request
// does not outlive its caller's interest in it and is not pooled.
//
// # Ownership rules
//
// Every pooled object has exactly one owner at a time, and only the
// owner may return it:
//
//   - Eager payload buffers (bufpool.Buf; a local payload takes one
//     only above inlinePayload): the sender acquires and fills one;
//     ownership transfers to the receiver with the envelope; the
//     receiver releases it after copying the payload out. A local
//     payload of at most inlinePayload bytes is copied into the
//     envelope itself and has no owner of its own: it is the
//     envelope's, and goes where it goes.
//   - envelopes: owned by the destination endpoint's queue; the
//     receiver that dequeues one (matchArrival) releases it after
//     reading its fields — an inline payload included, which the next
//     user of the envelope overwrites.
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
//   - edge cells (a kept plan's bound edges, edge.go): never pooled.
//     Bind allocates an edge's cells once, k of them for two runs of
//     its messages (cellRuns). The endpoint drops the edge when both
//     ends have released their bindings (a kept Plan rebinding or
//     freed) and it is drained, or else when the Run ends. A cell is
//     its sender's from the moment the receiver publishes it has taken
//     the message k before, until the sender stamps the next one into
//     it; from the stamp on it is the receiver's, until it publishes
//     that it has taken it. Neither end touches a cell out of turn, so a
//     cell needs no other owner and no lock.
//   - requests: never pooled. isend and irecv fill a request their
//     caller owns and keep no reference to it (completion reaches it
//     through the posted receive's or the rdvState's channel): the
//     blocking calls (Send, Recv, Sendrecv) pass the address of a
//     local, which must stay on their stack — the engine's alloc test
//     holds them to it. Prepost, the one call that hands a request
//     out, lets a caller that posts the same receives every collective
//     keep its requests: handed back a completed one, it re-arms it in
//     place — completion was the engine's last touch — and allocates
//     only for nil or a request still pending.
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

// newEagerEnvelope builds a pooled envelope carrying a copy of buf (the
// eager protocol's engine-owned payload): inside the envelope when it
// fits inlinePayload, else in a bufpool buffer counted on the sender's
// stripe.
func newEagerEnvelope(ctx int64, src, srcWorld, tag int, buf []byte) *envelope {
	env := envelopePool.Get().(*envelope)
	env.ctx, env.src, env.srcWorld, env.tag = ctx, src, srcWorld, tag
	env.rdv = nil
	if len(buf) <= inlinePayload {
		env.data, env.dbuf = append(env.small[:0], buf...), nil // fits: no growth
		return env
	}
	data := bufpool.GetAt(len(buf), srcWorld)
	copy(data.B, buf)
	env.data, env.dbuf = data.B, data
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
// buffer (if any) on the bufpool stripe of the consuming rank. The caller
// must have read every field it needs and, for rendezvous envelopes,
// must recycle the rdvState separately (it belongs to the sender).
func putEnvelope(env *envelope, rank int) {
	env.dbuf.ReleaseAt(rank) // a nil dbuf releases nothing
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
