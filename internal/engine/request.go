package engine

import (
	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// request implements mpi.Request. A request is used only by its owning
// rank's goroutine (like MPI), so completion caching needs no locking.
// Requests are pooled: the engine's own blocking paths recycle them
// through putRequest, while requests returned by Isend/Irecv stay with
// the caller (see pool.go).
type request struct {
	w *World
	// trackRank, when >= 0, marks that world rank blocked while Wait
	// waits (deadlock-detector accounting).
	trackRank int
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

func (r *request) Wait() (mpi.Status, error) {
	if r.complete {
		return r.st, r.err
	}
	// Poll before parking: an already-delivered result completes without
	// surrendering the execution slot, so the pooled substrate's hot path
	// (eager message waiting in the queue) skips a FIFO round-trip
	// through the pool.
	if r.Done() {
		return r.st, r.err
	}
	if r.trackRank >= 0 {
		r.w.parkRank(r.trackRank)
		defer r.w.unparkRank(r.trackRank)
	}
	switch {
	case r.pr != nil:
		select {
		case res := <-r.pr.done:
			r.st, r.err = res.st, res.err
			putPosted(r.pr) // drained; the sender is done with it
		case <-r.w.aborted:
			r.st, r.err = mpi.Status{}, r.w.abortError()
		case <-r.cancel.done:
			r.st, r.err = mpi.Status{}, r.cancel.fire(r.w)
		}
	case r.rdv != nil:
		select {
		case <-r.rdv.done:
			r.st, r.err = mpi.Status{Count: r.sendN}, nil
			putRdv(r.rdv) // signal consumed; the receiver is done with it
		case <-r.w.aborted:
			r.abandonRdv()
			r.st, r.err = mpi.Status{}, r.w.abortError()
		case <-r.cancel.done:
			r.abandonRdv()
			r.st, r.err = mpi.Status{}, r.cancel.fire(r.w)
		}
	}
	r.complete = true
	r.pr, r.rdv = nil, nil
	return r.st, r.err
}

// abandonRdv gives up a pending send without its completion signal.
func (r *request) abandonRdv() {
	if r.rdvID != 0 {
		r.w.abandonRdv(r.rdvID, r.rdvDst)
	}
}

func (r *request) Done() bool {
	if r.complete {
		return true
	}
	switch {
	case r.pr != nil:
		select {
		case res := <-r.pr.done:
			r.st, r.err = res.st, res.err
			putPosted(r.pr)
		default:
			return false
		}
	case r.rdv != nil:
		select {
		case <-r.rdv.done:
			r.st, r.err = mpi.Status{Count: r.sendN}, nil
			putRdv(r.rdv)
		default:
			return false
		}
	}
	r.complete = true
	r.pr, r.rdv = nil, nil
	return true
}

// isend starts a nonblocking send. It never blocks: if the eager credit
// window is full (or the message is rendezvous-sized), the message is
// enqueued as a zero-copy envelope backed by the caller's buffer — legal
// because MPI forbids touching the buffer until the request completes —
// and the request finishes when the receiver copies it out. Envelopes
// enter the queue synchronously, preserving non-overtaking order.
func (w *World) isend(ctx int64, srcRank, srcWorld, dstWorld int, buf []byte, tag int, cnl cancelSignal) *request {
	if w.wired && w.trans.Wire(dstWorld) {
		return w.isendRemote(ctx, srcRank, srcWorld, dstWorld, buf, tag, cnl)
	}
	select {
	case <-w.aborted:
		return completedRequest(mpi.Status{}, w.abortError())
	default:
	}
	if err := cnl.fired(w); err != nil {
		return completedRequest(mpi.Status{}, err)
	}
	ep := w.eps[dstWorld]
	eager := len(buf) <= w.eagerLimit

	ep.mu.Lock()
	if pr := ep.matchPosted(ctx, srcRank, tag); pr != nil {
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
		ep.arrivals = append(ep.arrivals, newEagerEnvelope(ctx, srcRank, srcWorld, tag, buf))
		ep.eagerBuffered[srcWorld]++
		w.metrics.Max(dstWorld, metrics.ArrivalQueueMax, int64(len(ep.arrivals)))
		ep.mu.Unlock()
		w.progress.Add(1)
		w.metrics.Add(srcWorld, metrics.EagerSends, 1)
		w.metrics.Add(srcWorld, metrics.StagedBytes, int64(len(buf)))
		return completedRequest(mpi.Status{Count: len(buf)}, nil)
	}
	// Zero-copy envelope: rendezvous-sized payloads, or eager overflow
	// past the credit window (the pinned buffer substitutes for the
	// buffering the receiver refused).
	env := newRdvEnvelope(ctx, srcRank, srcWorld, tag, buf)
	rdv := env.rdv
	ep.arrivals = append(ep.arrivals, env)
	w.metrics.Max(dstWorld, metrics.ArrivalQueueMax, int64(len(ep.arrivals)))
	ep.mu.Unlock()
	w.progress.Add(1)
	w.metrics.Add(srcWorld, metrics.RdvSends, 1)
	r := requestPool.Get().(*request)
	*r = request{w: w, trackRank: srcWorld, rdv: rdv, sendN: len(buf), cancel: cnl}
	return r
}

// irecv posts a nonblocking receive. Posting happens synchronously (so a
// rendezvous sender can match it immediately); the request completes when
// a matching message is consumed.
func (w *World) irecv(ctx int64, myWorld int, buf []byte, src, tag int, cnl cancelSignal) *request {
	select {
	case <-w.aborted:
		return completedRequest(mpi.Status{}, w.abortError())
	default:
	}
	if err := cnl.fired(w); err != nil {
		return completedRequest(mpi.Status{}, err)
	}
	ep := w.eps[myWorld]
	ep.mu.Lock()
	if env := ep.matchArrival(ctx, src, tag); env != nil {
		if env.rdv != nil {
			rdv := env.rdv
			n, err := copyPayload(buf, rdv.buf)
			ep.mu.Unlock()
			st := mpi.Status{Source: env.src, Tag: env.tag, Count: n}
			putEnvelope(env)
			rdv.done <- struct{}{} // sender consumes the signal and recycles rdv
			w.progress.Add(1)
			w.countRecv(myWorld, false)
			return completedRequest(st, err)
		}
		if env.ackID != 0 {
			// Remote rendezvous: copy out of the wire payload, then ack
			// the sender's process. No eager credit to release — remote
			// rendezvous never charged one.
			n, err := copyPayload(buf, env.data)
			ep.mu.Unlock()
			st := mpi.Status{Source: env.src, Tag: env.tag, Count: n}
			ctx, to, id := env.ctx, env.srcWorld, env.ackID
			putEnvelope(env)
			w.sendRdvAck(ctx, myWorld, to, id)
			w.progress.Add(1)
			w.countRecv(myWorld, false)
			return completedRequest(st, err)
		}
		n, err := copyPayload(buf, env.data)
		ep.releaseEagerCredit(env.srcWorld)
		ep.mu.Unlock()
		st := mpi.Status{Source: env.src, Tag: env.tag, Count: n}
		putEnvelope(env)
		w.progress.Add(1)
		w.countRecv(myWorld, true)
		return completedRequest(st, err)
	}
	pr := getPosted(w, ctx, src, tag, buf)
	ep.recvs = append(ep.recvs, pr)
	w.metrics.Max(myWorld, metrics.PostedQueueMax, int64(len(ep.recvs)))
	ep.mu.Unlock()
	r := requestPool.Get().(*request)
	*r = request{w: w, trackRank: myWorld, pr: pr, cancel: cnl}
	return r
}
