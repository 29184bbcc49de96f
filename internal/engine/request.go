package engine

import (
	"runtime"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// yieldFloor is the smallest local delivery, in bytes, after which the
// copier hands its core to the rank it woke (see handOff). Below it the
// copy costs less than the yield: on two cores a 64 KiB floor cut a
// 256 KiB ring-opt broadcast's goodput by a tenth, and the 8 MiB one
// gained more from a 1 MiB floor than from 256 KiB.
const yieldFloor = 1 << 20

// yield gives up the processor. It is a variable only so that a test can
// watch every hand-off; nothing else sets it.
var yield = runtime.Gosched

// handOff yields after a local delivery of n bytes woke peer, when the
// copy was at least yieldFloor bytes and peer still reads blocked — no
// other core has picked it up yet. The woken rank then runs on this
// core and an idle one takes the copier (see the package doc on which
// core a woken rank runs on).
func (w *World) handOff(peer, n int) {
	if n >= yieldFloor && w.state[peer].Load() == 1 {
		yield()
	}
}

// request implements mpi.Request. A request is used only by its owning
// rank's goroutine (like MPI), so completion caching needs no locking.
// The caller of isend / irecv owns the request it passes in: a local of
// the blocking calls, or one Prepost keeps for its caller (see pool.go).
type request struct {
	w *World
	// rank is the owning world rank: the one Wait marks blocked (for the
	// deadlock detector) and whose execution slot it gives up meanwhile.
	rank int
	// cancel is the bound cancellation signal of the communicator that
	// issued the operation (zero = unbound).
	cancel cancelSignal
	// rec is a recorded receive's traffic row until it is counted.
	rec *metrics.TrafficRow
	// own is the posted receive a Prepost request keeps across re-arms
	// (pool.go); nil for any other request.
	own *posted

	// Pending completion sources (exactly one is non-nil while pending):
	pr    *posted   // posted receive (completion delivered via pr.done)
	rdv   *rdvState // zero-copy send awaiting its receiver
	e     *edge     // bound send (esend) or receive of ebuf (see edge.go)
	sendN int       // payload size for the send status
	ebuf  []byte
	// rdvID, when nonzero, marks rdv as a remote rendezvous to world rank
	// rdvDst, registered under that correlation id (see remote.go).
	rdvID  uint64
	rdvDst int
	esend  bool

	// Cached result once complete.
	complete bool
	st       mpi.Status
	err      error
}

var _ mpi.Request = (*request)(nil)

// Wait is the engine's one blocking point: every blocking call (Send,
// Recv, Sendrecv) is its nonblocking form followed by Wait.
func (r *request) Wait() (mpi.Status, error) {
	r.harvest()
	r.count()
	return r.st, r.err
}

// count charges a receive's first successful completion to its row.
func (r *request) count() {
	if r.rec != nil && r.err == nil {
		r.rec.Recvs++
		r.rec = nil
	}
}

// harvest moves the operation's outcome into the request: the delivery
// from its completion channel or its bound edge, or the world's abort /
// the bound context's cancellation, which end a pending operation just
// as finally. With nothing to take yet it parks the rank until there is.
func (r *request) harvest() {
	if r.complete {
		return
	}
	var recvd chan recvResult
	var taken, woke chan struct{}
	switch {
	case r.pr != nil:
		recvd = r.pr.done
	case r.e == nil:
		taken = r.rdv.done
	case r.edgeTry():
		return
	case r.esend:
		woke = r.e.sendWaits.ch
	default:
		woke = r.e.recvWaits.ch
	}
	aborted, canceled := r.w.aborted, r.cancel.done
	switch {
	case len(recvd) > 0:
		// Delivered already: take it without surrendering the execution
		// slot (the pooled substrate's hot path skips a FIFO round-trip
		// through the pool), ahead of an abort that came after it, and
		// with a plain receive — a select over the signals costs more
		// than handing over a small message.
		r.received(<-recvd)
		return
	case len(taken) > 0:
		<-taken
		r.sent()
		return
	case closed(aborted) || closed(canceled):
	default:
		r.w.parkRank(r.rank)
		defer r.w.unparkRank(r.rank)
	}
	for {
		if woke != nil && r.edgeArm() {
			// The edges count nothing per message: a rank that parked
			// and moved on shows the watchdog its progress here.
			r.w.progressed(r.rank)
			return
		}
		select {
		case res := <-recvd:
			r.received(res)
			return
		case <-taken:
			r.sent()
			return
		case <-woke:
			continue
		case <-aborted:
			r.abandonRdv()
			r.err = r.w.abortError()
		case <-canceled:
			r.abandonRdv()
			r.err = r.cancel.fire(r.w)
		}
		break
	}
	r.complete = true
	// A sender may still hold the posted receive: it is not this
	// request's to re-arm any more.
	r.pr, r.rdv, r.e, r.own = nil, nil, nil, nil
}

// received completes a receive with its delivery and recycles the posted
// receive: drained, the sender is done with it.
func (r *request) received(res recvResult) {
	putPosted(r.pr)
	r.complete, r.st, r.err = true, res.st, res.err
	r.pr = nil
}

// sent completes a zero-copy send whose receiver has taken the payload
// and recycles its rendezvous state: signal consumed, the receiver is
// done with it.
func (r *request) sent() {
	putRdv(r.rdv)
	r.complete, r.st = true, mpi.Status{Count: r.sendN}
	r.rdv = nil
}

// abandonRdv gives up a pending remote send without its completion
// signal (a no-op for a receive or a local send).
func (r *request) abandonRdv() {
	if r.rdvID != 0 {
		r.w.abandonRdv(r.rdvID, r.rdvDst)
	}
}

// finish completes r on the spot with the operation's outcome.
func (r *request) finish(st mpi.Status, err error) {
	r.complete, r.st, r.err = true, st, err
}

// isend is the engine's send entry for every message but those on a kept
// schedule's bound edges, which binding.Move copies into their cells
// (edge.go); the blocking Send is isend followed by Wait. It never
// blocks. A message that finds its receive posted is delivered on the
// spot; an eager one within the credit window is buffered at the
// receiver and the send is complete, unless it is late; anything else —
// a rendezvous-sized payload, an eager one the full window refused, or
// a late send (Presend, late.go: late is its ring slot, nil for any
// other), whose caller leaves buf untouched until its wait and so needs
// no copy — is enqueued as a zero-copy envelope backed by the caller's
// buffer (legal because MPI forbids touching the buffer until the
// request completes) and the request finishes when the receiver copies
// it out.
// A delivery on the spot of yieldFloor bytes or more to a parked
// receiver ends with handOff: the woken receiver takes this core, and
// the sender moves to an idle one.
// Envelopes enter the queue synchronously, preserving non-overtaking
// order. r is the caller's zero request, which isend fills. srcRank is
// the sender's rank within the ctx communicator (carried in the envelope
// for matching), srcWorld and dstWorld are world ranks, cnl is the
// operation's bound cancellation signal.
//
// A send writes only memory its two ranks own: the receiver's endpoint
// (and, for a delivery on the spot, its receive counter), the sender's
// metrics shard, progress count and bufpool stripe.
func (w *World) isend(r *request, ctx int64, srcRank, srcWorld, dstWorld int, buf []byte, tag int, cnl cancelSignal, late *lateSend) {
	if err := w.enter(cnl); err != nil {
		r.finish(mpi.Status{}, err)
		return
	}
	if w.wired && w.trans.Wire(dstWorld) {
		w.isendRemote(r, ctx, srcRank, srcWorld, dstWorld, buf, tag, cnl)
		return
	}
	ep := w.eps[dstWorld]
	eager := len(buf) <= w.eagerLimit

	ep.mu.Lock()
	if pr := ep.matchPosted(ctx, srcRank, tag); pr != nil {
		// A receive is already waiting: one copy, straight into its
		// buffer, whatever the protocol (the LMT path for a rendezvous
		// message; an eager one has nothing to be staged for). What
		// staging costs on a real cluster is internal/netsim's to charge,
		// in simulated time. Matched, the receive is this sender's alone,
		// so the copy runs outside the receiver's lock.
		ep.mu.Unlock()
		n, err := copyPayload(pr.buf, buf)
		pr.done <- recvResult{st: mpi.Status{Source: srcRank, Tag: tag, Count: n}, err: err}
		w.handOff(dstWorld, n)
		w.progressed(srcWorld)
		w.countSend(srcWorld, eager)
		w.countRecv(dstWorld, eager)
		r.finish(mpi.Status{Count: len(buf)}, nil)
		return
	}
	if eager && late == nil && (w.eagerCredits == 0 || int(ep.eagerBuffered[srcWorld]) < w.eagerCredits) {
		// Eager within the credit window: the engine takes a copy
		// (pooled) and the send completes immediately.
		w.enqueueArrival(ep, dstWorld, newEagerEnvelope(ctx, srcRank, srcWorld, tag, buf))
		ep.eagerBuffered[srcWorld]++
		ep.mu.Unlock()
		w.progressed(srcWorld)
		w.countSend(srcWorld, true)
		w.metrics.Add(srcWorld, metrics.StagedBytes, int64(len(buf)))
		r.finish(mpi.Status{Count: len(buf)}, nil)
		return
	}
	// Zero-copy envelope: the pinned buffer substitutes for the buffering
	// the receiver refused (or a late send did not ask for), so its queue
	// stays bounded by the window and the late-send ring. A late send
	// waits in its slot's own envelope.
	var env *envelope
	if late != nil {
		env = late.envelope(ctx, srcRank, srcWorld, tag, buf)
	} else {
		env = newRdvEnvelope(ctx, srcRank, srcWorld, tag, buf)
	}
	rdv := env.rdv
	w.enqueueArrival(ep, dstWorld, env)
	ep.mu.Unlock()
	w.progressed(srcWorld)
	w.countSend(srcWorld, false)
	*r = request{w: w, rank: srcWorld, rdv: rdv, sendN: len(buf), cancel: cnl}
}

// irecv posts a nonblocking receive for the rank whose world rank is
// myWorld, filling the caller's zero request r (a Prepost request is
// zero but for the posted receive it owns, which irecv posts); src and
// tag may be wildcards. Posting happens synchronously (so a sender can
// match it immediately); the request completes when a matching message
// is consumed. Taking a zero-copy envelope of yieldFloor bytes or more
// from a parked sender ends with handOff, as isend's delivery on the
// spot does: the released sender runs here, the receiver moves on
// elsewhere.
func (w *World) irecv(r *request, ctx int64, myWorld int, buf []byte, src, tag int, cnl cancelSignal) {
	if err := w.enter(cnl); err != nil {
		r.finish(mpi.Status{}, err)
		return
	}
	ep := w.eps[myWorld]
	ep.mu.Lock()
	if env := ep.matchArrival(ctx, src, tag); env != nil {
		// Already here: copy out — dequeued, the message is this
		// receiver's alone, so outside the lock — then let its sender go
		// the way its kind asks. Only a buffered eager message holds a
		// credit (neither rendezvous kind charged one).
		data, rdv := env.data, env.rdv
		if rdv != nil {
			data = rdv.buf
		}
		eager := rdv == nil && env.ackID == 0
		if eager {
			ep.eagerBuffered[env.srcWorld]-- // the window has room for one more
		}
		ep.mu.Unlock()
		n, err := copyPayload(buf, data)
		st := mpi.Status{Source: env.src, Tag: env.tag, Count: n}
		sender := env.srcWorld
		if env.ackID != 0 {
			// Remote rendezvous: the ack unblocks the sender in its process.
			w.sendRdvAck(env.ctx, myWorld, sender, env.ackID)
		}
		// Released before the signal: a late send's envelope is its
		// sender's again from then on (late.go).
		putEnvelope(env, myWorld)
		if rdv != nil {
			rdv.done <- struct{}{} // sender consumes the signal and recycles rdv
			w.handOff(sender, n)
		}
		w.progressed(myWorld)
		w.countRecv(myWorld, eager)
		r.finish(st, err)
		return
	}
	pr := r.own
	if pr != nil {
		pr.w, pr.ctx, pr.src, pr.tag, pr.buf = w, ctx, src, tag, buf
	} else {
		pr = getPosted(w, ctx, src, tag, buf)
	}
	w.enqueuePosted(ep, myWorld, pr)
	ep.mu.Unlock()
	*r = request{w: w, rank: myWorld, pr: pr, own: r.own, cancel: cnl}
}
