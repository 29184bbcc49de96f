package engine

// The engine's transport seam. A world built with a wired transport
// (see internal/transport) has isend hand the messages whose destination
// the transport declares wired to Transport.Send (isendRemote) instead of
// the in-process endpoint, and receives inbound messages through
// remoteHandler on the transport's delivery goroutine. A blocking Send
// to a wired rank is isend + Wait like any other. The protocols map as:
//
//   - Eager: the payload crosses the wire and the send is complete at
//     enqueue time — the transport's copy substitutes for the local
//     staging copy, so StagedBytes accounting is unchanged. On arrival
//     the message either completes a posted receive or parks in the
//     unexpected queue as an ordinary eager envelope (charging the
//     sender's eager-credit account, which the consuming receive
//     releases as usual; the account does not hold a remote sender back —
//     the transport's send window is its flow control).
//   - Rendezvous: the payload crosses the wire with a correlation id
//     and the send's request stays pending on a pooled rdvState
//     registered under that id. The sender's buffer is the transport's
//     for that long: it is written to the wire as it lies, never copied
//     (see the transport package's message model). When the receiver has
//     the payload, a RdvAck goes back over the same reliable stream and
//     Deliver signals the rdvState. The "a send completes when the
//     receiver takes the message" contract survives, and so does the
//     sender's half of the single-copy property.
//
// Either kind is placed straight into the receiver's buffer when its
// receive was posted, with an exactly fitting buffer, before the
// message's first fragment arrived (Claim): the posted receive leaves
// the queue at that moment and completes when the last fragment lands.
// Otherwise the transport reassembles the message in pooled memory and
// Deliver matches it as a local sender would, one copy later.
//
// A rendezvous send whose request completes without its RdvAck (abort
// or cancellation seen by Wait, a failed Transport.Send) goes
// through abandonRdv, which drops the registration — the rdvState is
// left to the garbage collector, since a late ack may still be heading
// for it, the same policy pool.go sets for local aborts — and takes the
// buffer back from the transport. An aborted world accepts no further
// payloads: its receivers have already returned, so nothing may be
// written into their buffers.

import (
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// registerRdv allocates a correlation id and parks a pooled rdvState
// under it for a remote rendezvous in flight.
func (w *World) registerRdv() (uint64, *rdvState) {
	id := w.rdvSeq.Add(1)
	rdv := rdvPool.Get().(*rdvState)
	w.remoteMu.Lock()
	w.remoteRdv[id] = rdv
	w.remoteMu.Unlock()
	return id, rdv
}

// abandonRdv is the one way a remote rendezvous ends without its
// RdvAck: the registration is dropped and, before the sender is let go,
// the transport gives up its view of the sender's buffer.
func (w *World) abandonRdv(id uint64, dstWorld int) {
	w.remoteMu.Lock()
	delete(w.remoteRdv, id)
	w.remoteMu.Unlock()
	w.trans.Unpin(dstWorld, id)
}

// sendRdvAck tells the sender of rendezvous message id, world rank to,
// that world rank from has consumed it.
func (w *World) sendRdvAck(ctx int64, from, to int, id uint64) {
	_ = w.trans.Send(transport.Message{
		Ctx: ctx, Src: from, SrcWorld: from, Dst: to,
		Kind: transport.RdvAck, MsgID: id,
	})
}

// isendRemote is isend's enqueue for a wired destination. Eager
// completes at once; rendezvous leaves the request pending on the
// registered rdvState, which Wait treats exactly like a local zero-copy
// send (the ack signal comes through the same buffered-once channel).
func (w *World) isendRemote(r *request, ctx int64, srcRank, srcWorld, dstWorld int, buf []byte, tag int, cnl cancelSignal) {
	m := transport.Message{
		Ctx: ctx, Src: srcRank, SrcWorld: srcWorld, Dst: dstWorld,
		Tag: tag, Kind: transport.Eager, Data: buf,
	}
	eager := len(buf) <= w.eagerLimit
	var rdv *rdvState
	if !eager {
		m.Kind = transport.Rdv
		m.MsgID, rdv = w.registerRdv()
	}
	if err := w.trans.Send(m); err != nil {
		if !eager {
			w.abandonRdv(m.MsgID, dstWorld)
		}
		w.abort(err)
		r.finish(mpi.Status{}, w.abortError())
		return
	}
	w.progressed(srcWorld)
	w.countSend(srcWorld, eager)
	if eager {
		w.metrics.Add(srcWorld, metrics.StagedBytes, int64(len(buf)))
		r.finish(mpi.Status{Count: len(buf)}, nil)
		return
	}
	*r = request{w: w, rank: srcWorld, rdv: rdv, rdvID: m.MsgID, rdvDst: dstWorld, sendN: len(buf), cancel: cnl}
}

// remoteHandler is the world's transport.Handler: it runs on the
// transport's delivery goroutine and injects inbound messages into the
// destination endpoint exactly where a local sender would.
type remoteHandler struct{ w *World }

// hostsRank reports whether r, a rank number off the wire, names a rank
// of this world that runs in this process.
func (w *World) hostsRank(r int) bool { return r >= 0 && r < w.np && w.hosted[r] }

// accepts reports whether the data message m may still be taken in: its
// destination is hosted here, its source is a rank of this world (it
// indexes the destination's credit account) and the world has not
// aborted.
func (w *World) accepts(m *transport.Message) bool {
	if (m.Kind != transport.Eager && m.Kind != transport.Rdv) ||
		!w.hostsRank(m.Dst) || m.SrcWorld < 0 || m.SrcWorld >= w.np {
		return false
	}
	return !w.isAborted()
}

// Claim implements transport.Handler: a message whose first fragment
// finds its receive posted with an exactly fitting buffer takes that
// receive out of the queue — it is matched, as if the whole message had
// arrived now — and is placed straight into its buffer. A shorter
// buffer (truncation) or a longer one is left to Deliver.
func (h remoteHandler) Claim(m transport.Message, size int) transport.Sink {
	w := h.w
	if !w.accepts(&m) {
		return nil
	}
	ep := w.eps[m.Dst]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	i := ep.findPosted(m.Ctx, m.Src, m.Tag)
	if i < 0 || len(ep.recvs[i].buf) != size {
		return nil
	}
	return ep.takePosted(i)
}

// withdrawn reports whether the world has aborted: the receive's caller
// may have returned, so its buffer is no longer the engine's to write.
func (pr *posted) withdrawn() bool { return pr.w.isAborted() }

// Window implements transport.Sink on a claimed receive: the part of
// the receive buffer itself, for the kernel to write the fragment into.
func (pr *posted) Window(off, n int) []byte {
	if pr.withdrawn() {
		return nil
	}
	return pr.buf[off : off+n : off+n]
}

// Place implements transport.Sink on a claimed receive. A fragment that
// arrived in its window is where it belongs already and is only counted.
func (pr *posted) Place(off int, frag []byte) bool {
	if pr.withdrawn() {
		return false
	}
	if len(frag) > 0 && &frag[0] == &pr.buf[off] {
		pr.w.metrics.Add(0, metrics.WireDirectBytes, int64(len(frag)))
		return true
	}
	copy(pr.buf[off:], frag)
	return true
}

// completeRemote finishes the posted receive pr with the n bytes it took
// of remote message m, and lets a rendezvous sender go. It counts the
// receive before it signals: the receiver's Run may return as soon as it
// has the result, and its counters must have moved by then.
func (w *World) completeRemote(pr *posted, m *transport.Message, n int, err error) {
	w.progressed(m.Dst)
	eager := m.Kind == transport.Eager
	w.countRecv(m.Dst, eager)
	// The receiver may recycle pr once it has the result.
	pr.done <- recvResult{st: mpi.Status{Source: m.Src, Tag: m.Tag, Count: n}, err: err}
	if !eager {
		w.sendRdvAck(m.Ctx, m.Dst, m.SrcWorld, m.MsgID)
	}
}

// Deliver implements transport.Handler: a RdvAck releases its blocked
// sender; a claimed message completes the receive it was placed into;
// any other completes a posted receive by copy or parks an envelope in
// the unexpected queue.
func (h remoteHandler) Deliver(m transport.Message) {
	w := h.w
	if m.Kind == transport.RdvAck {
		m.Buf.Release()
		if !w.hostsRank(m.Dst) {
			return // answers no sender of ours
		}
		w.remoteMu.Lock()
		rdv := w.remoteRdv[m.MsgID]
		delete(w.remoteRdv, m.MsgID)
		w.remoteMu.Unlock()
		if rdv != nil {
			rdv.done <- struct{}{}
			w.progressed(m.Dst)
		}
		return
	}
	if !w.accepts(&m) {
		m.Buf.Release()
		return
	}
	if m.Sink != nil {
		pr := m.Sink.(*posted)
		w.completeRemote(pr, &m, len(pr.buf), nil)
		return
	}
	ep := w.eps[m.Dst]
	ep.mu.Lock()
	if pr := ep.matchPosted(m.Ctx, m.Src, m.Tag); pr != nil {
		n, err := copyPayload(pr.buf, m.Data)
		ep.mu.Unlock()
		m.Buf.Release()
		w.completeRemote(pr, &m, n, err)
		return
	}
	w.enqueueArrival(ep, m.Dst, newRemoteEnvelope(&m))
	if m.Kind == transport.Eager {
		ep.eagerBuffered[m.SrcWorld]++
	}
	ep.mu.Unlock()
	w.progressed(m.Dst)
}
