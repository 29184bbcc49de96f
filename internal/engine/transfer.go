package engine

import (
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// countSend charges one issued message to the sender's shard and, when
// the send also delivered (matched an already-posted receive), one
// completed receive to the receiver's. Split eager/rendezvous so the
// protocol mix — the quantity the eager-limit knob tunes — is a
// first-class observable.
func (w *World) countSend(srcWorld int, eager bool) {
	if eager {
		w.metrics.Add(srcWorld, metrics.EagerSends, 1)
	} else {
		w.metrics.Add(srcWorld, metrics.RdvSends, 1)
	}
}

func (w *World) countRecv(dstWorld int, eager bool) {
	if eager {
		w.metrics.Add(dstWorld, metrics.EagerRecvs, 1)
	} else {
		w.metrics.Add(dstWorld, metrics.RdvRecvs, 1)
	}
}

// send is the blocking send: an isend followed by an immediate Wait, so
// a send the receiver neither matched nor buffered blocks as a zero-copy
// envelope until the receiver takes it. The request never leaves this
// frame.
func (w *World) send(ctx int64, srcRank, srcWorld, dstWorld int, buf []byte, tag int, cnl cancelSignal) error {
	var r request
	w.isend(&r, ctx, srcRank, srcWorld, dstWorld, buf, tag, cnl)
	_, err := r.Wait()
	return err
}

// recv is the blocking receive: an irecv followed by an immediate Wait.
func (w *World) recv(ctx int64, myWorld int, buf []byte, src, tag int, cnl cancelSignal) (mpi.Status, error) {
	var r request
	w.irecv(&r, ctx, myWorld, buf, src, tag, cnl)
	return r.Wait()
}
