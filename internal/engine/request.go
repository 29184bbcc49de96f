package engine

import (
	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// request implements mpi.Request. A request is used only by its owning
// rank's goroutine (like MPI), so completion caching needs no locking.
// Requests are pooled: the engine's own blocking calls recycle them
// through putRequest, while requests returned by Isend/Irecv stay with
// the caller (see pool.go).
type request struct {
	w *World
	// rank is the owning world rank: the one Wait marks blocked (for the
	// deadlock detector) and whose execution slot it gives up meanwhile.
	rank int
	// cancel is the bound cancellation signal of the communicator that
	// issued the operation (zero = unbound).
	cancel cancelSignal

	// Pending completion sources (exactly one is non-nil while pending):
	pr    *posted   // posted receive (completion delivered via pr.done)
	rdv   *rdvState // zero-copy send awaiting its receiver
	sendN int       // payload size for the send status
	// rdvID, when nonzero, marks rdv as a remote rendezvous to world rank
	// rdvDst, registered under that correlation id (see remote.go).
	rdvID  uint64
	rdvDst int

	// Cached result once complete.
	complete bool
	st       mpi.Status
	err      error
}

var _ mpi.Request = (*request)(nil)

// Wait is the engine's one blocking point: every blocking call (Send,
// Recv, Sendrecv) is its nonblocking form followed by Wait.
func (r *request) Wait() (mpi.Status, error) {
	r.harvest(true)
	return r.st, r.err
}

func (r *request) Done() bool { return r.harvest(false) }

// harvest moves the operation's outcome into the request: the delivery
// from its completion channel, or the world's abort / the bound
// context's cancellation, which end a pending operation just as finally.
// With nothing to take yet it reports false when block is unset and
// otherwise parks the rank until there is.
func (r *request) harvest(block bool) bool {
	if r.complete {
		return true
	}
	var recvd chan recvResult
	var taken chan struct{}
	if r.pr != nil {
		recvd = r.pr.done
	} else {
		taken = r.rdv.done
	}
	aborted, canceled := r.w.aborted, r.cancel.done
	switch {
	case len(recvd)+len(taken) > 0:
		// Delivered already: take it without surrendering the execution
		// slot (the pooled substrate's hot path skips a FIFO round-trip
		// through the pool), and ahead of an abort that came after it.
		aborted, canceled = nil, nil
	case closed(aborted) || closed(canceled):
	case !block:
		return false
	default:
		r.w.parkRank(r.rank)
		defer r.w.unparkRank(r.rank)
	}
	select {
	case res := <-recvd:
		r.st, r.err = res.st, res.err
		putPosted(r.pr) // drained; the sender is done with it
	case <-taken:
		r.st = mpi.Status{Count: r.sendN}
		putRdv(r.rdv) // signal consumed; the receiver is done with it
	case <-aborted:
		r.abandonRdv()
		r.err = r.w.abortError()
	case <-canceled:
		r.abandonRdv()
		r.err = r.cancel.fire(r.w)
	}
	r.complete = true
	r.pr, r.rdv = nil, nil
	return true
}

// abandonRdv gives up a pending remote send without its completion
// signal (a no-op for a receive or a local send).
func (r *request) abandonRdv() {
	if r.rdvID != 0 {
		r.w.abandonRdv(r.rdvID, r.rdvDst)
	}
}

// isend is the engine's one send entry; the blocking Send is isend
// followed by Wait. It never blocks. A message that finds its receive
// posted is delivered on the spot; an eager one within the credit window
// is buffered at the receiver and the send is complete; anything else —
// a rendezvous-sized payload, or an eager one the full window refused —
// is enqueued as a zero-copy envelope backed by the caller's buffer
// (legal because MPI forbids touching the buffer until the request
// completes) and the request finishes when the receiver copies it out.
// Envelopes enter the queue synchronously, preserving non-overtaking
// order. srcRank is the sender's rank within the ctx communicator
// (carried in the envelope for matching), srcWorld and dstWorld are world
// ranks, cnl is the operation's bound cancellation signal.
func (w *World) isend(ctx int64, srcRank, srcWorld, dstWorld int, buf []byte, tag int, cnl cancelSignal) *request {
	if err := w.enter(cnl); err != nil {
		return completedRequest(mpi.Status{}, err)
	}
	if w.wired && w.trans.Wire(dstWorld) {
		return w.isendRemote(ctx, srcRank, srcWorld, dstWorld, buf, tag, cnl)
	}
	ep := w.eps[dstWorld]
	eager := len(buf) <= w.eagerLimit

	ep.mu.Lock()
	if pr := ep.matchPosted(ctx, srcRank, tag); pr != nil {
		// A receive is already waiting. Rendezvous delivers with a
		// single direct copy (the LMT path); eager still pays the
		// staging copy like MPICH's shared-memory cells do, so the
		// protocol's cost does not depend on receive timing.
		var n int
		var err error
		if eager {
			staging := bufpool.Get(len(buf))
			copy(staging.B, buf)
			n, err = copyPayload(pr.buf, staging.B)
			staging.Release()
			w.metrics.Add(srcWorld, metrics.StagedBytes, int64(len(buf)))
		} else {
			n, err = copyPayload(pr.buf, buf)
		}
		ep.mu.Unlock()
		pr.done <- recvResult{st: mpi.Status{Source: srcRank, Tag: tag, Count: n}, err: err}
		w.progress.Add(1)
		w.countSend(srcWorld, eager)
		w.countRecv(dstWorld, eager)
		return completedRequest(mpi.Status{Count: len(buf)}, nil)
	}
	if eager && (w.eagerCredits == 0 || ep.eagerBuffered[srcWorld] < w.eagerCredits) {
		// Eager within the credit window: the engine takes a copy
		// (pooled) and the send completes immediately. (The
		// receive-side staging copy this implies is charged by
		// internal/netsim in simulated time.)
		ep.arrivals = append(ep.arrivals, newEagerEnvelope(ctx, srcRank, srcWorld, tag, buf))
		ep.eagerBuffered[srcWorld]++
		w.metrics.Max(dstWorld, metrics.ArrivalQueueMax, int64(len(ep.arrivals)))
		ep.mu.Unlock()
		w.progress.Add(1)
		w.countSend(srcWorld, true)
		w.metrics.Add(srcWorld, metrics.StagedBytes, int64(len(buf)))
		return completedRequest(mpi.Status{Count: len(buf)}, nil)
	}
	// Zero-copy envelope: the pinned buffer substitutes for the buffering
	// the receiver refused, so its queue stays bounded by the window.
	env := newRdvEnvelope(ctx, srcRank, srcWorld, tag, buf)
	rdv := env.rdv
	ep.arrivals = append(ep.arrivals, env)
	w.metrics.Max(dstWorld, metrics.ArrivalQueueMax, int64(len(ep.arrivals)))
	ep.mu.Unlock()
	w.progress.Add(1)
	w.countSend(srcWorld, false)
	r := requestPool.Get().(*request)
	*r = request{w: w, rank: srcWorld, rdv: rdv, sendN: len(buf), cancel: cnl}
	return r
}

// irecv posts a nonblocking receive for the rank whose world rank is
// myWorld; src and tag may be wildcards. Posting happens synchronously
// (so a sender can match it immediately); the request completes when a
// matching message is consumed.
func (w *World) irecv(ctx int64, myWorld int, buf []byte, src, tag int, cnl cancelSignal) *request {
	if err := w.enter(cnl); err != nil {
		return completedRequest(mpi.Status{}, err)
	}
	ep := w.eps[myWorld]
	ep.mu.Lock()
	if env := ep.matchArrival(ctx, src, tag); env != nil {
		// Already here: copy out, then let the message's sender go the
		// way its kind asks. Only a buffered eager message holds a credit
		// (neither rendezvous kind charged one).
		data, rdv := env.data, env.rdv
		if rdv != nil {
			data = rdv.buf
		}
		eager := rdv == nil && env.ackID == 0
		n, err := copyPayload(buf, data)
		if eager {
			ep.releaseEagerCredit(env.srcWorld)
		}
		ep.mu.Unlock()
		st := mpi.Status{Source: env.src, Tag: env.tag, Count: n}
		if rdv != nil {
			rdv.done <- struct{}{} // sender consumes the signal and recycles rdv
		} else if env.ackID != 0 {
			// Remote rendezvous: the ack unblocks the sender in its process.
			w.sendRdvAck(env.ctx, myWorld, env.srcWorld, env.ackID)
		}
		putEnvelope(env)
		w.progress.Add(1)
		w.countRecv(myWorld, eager)
		return completedRequest(st, err)
	}
	pr := getPosted(w, ctx, src, tag, buf)
	ep.recvs = append(ep.recvs, pr)
	w.metrics.Max(myWorld, metrics.PostedQueueMax, int64(len(ep.recvs)))
	ep.mu.Unlock()
	r := requestPool.Get().(*request)
	*r = request{w: w, rank: myWorld, pr: pr, cancel: cnl}
	return r
}
