package engine

import "repro/internal/metrics"

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
