package main

import "fmt"

// callStyle is how a rank issues its broadcasts.
type callStyle int

const (
	// perCall issues Comm.Bcast every round: option merge, tuner
	// decision and registry dispatch are paid per broadcast.
	perCall callStyle = iota
	// persistentCall resolves once with BcastInit and runs the handle.
	persistentCall
	// bareCall bypasses the facade: collective.RunDecision on a bare
	// engine.World.
	bareCall
)

// workload is one named shape of the stack. The first block of fields is
// the shape the end-to-end run measures; the second block holds the
// toggles the traced run flips, one at a time, to price a single layer
// against the same shape.
type workload struct {
	name string
	why  string

	np        int
	placement string // bcast.Placement spec; "" = one node
	size      int    // payload bytes per broadcast
	style     callStyle
	algo      string  // pinned registry algorithm; "" = tuner dispatch
	seg       int     // segment size for a pinned segmented algorithm
	transport string  // "" = chan, "udp" = loopback socket
	drop      float64 // injected datagram loss (bare + udp only)

	// sessions is how many times the end-to-end run boots the shape
	// afresh and measures it; block is the number of back-to-back rounds
	// in one throughput sample, sized so a session's throughput phase
	// holds several; latCap bounds the latency samples of one session.
	sessions int
	block    int
	latCap   int

	spans   int  // WithSpans capacity; 0 = off
	traffic bool // TraceTraffic
	native  bool // stock (enclosed-ring) dispatch instead of the tuned one
	pooled  bool // ExecPooled(0) instead of goroutine-per-rank
	program bool // bare only: ExecProgram of the generated schedule
}

// workloads are the six shapes of BENCHMARK.json, in its order. Each
// `why` is the one-line reason recorded there; README.md has the long
// form.
var workloads = []workload{
	{
		name: "msgrate-np64",
		why:  "np=64 blocked:32, 4 KiB persistent opt-seg: ~4k tiny eager messages per broadcast, so engine matching, parking and pooling do nearly all the work",
		np:   64, placement: "blocked:32", size: 4 << 10, style: persistentCall,
		algo: "scatter-ring-allgather-opt-seg", seg: 8 << 10,
		sessions: 30, block: 32, latCap: 4096,
	},
	{
		name: "short-percall-np16",
		why:  "np=16, 1 KiB per-call binomial: per-call option merge, tuner decision and registry dispatch are a visible share of a ~50 us broadcast",
		np:   16, size: 1 << 10, style: perCall,
		sessions: 30, block: 512, latCap: 16384,
	},
	{
		name: "mmsg-npof2-np10",
		why:  "the paper's mmsg-npof2 case: np=10, 256 KiB, tuned ring-opt; 25.6 KiB chunks stay eager, so every hop is staged through bufpool",
		np:   10, size: 256 << 10, style: perCall,
		sessions: 30, block: 128, latCap: 8192,
	},
	{
		name: "lmsg-np8",
		why:  "the paper's lmsg case: np=8, 8 MiB, tuned ring-opt; 1 MiB chunks go rendezvous, so bytes moved by the schedule set the time",
		np:   8, size: 8 << 20, style: perCall,
		sessions: 15, block: 16, latCap: 4096,
	},
	{
		name: "lmsg-udp-np8",
		why:  "np=8, 1 MiB, tuned ring-opt with every hop through a loopback UDP socket: transport framing, ACKs and batching dominate",
		np:   8, size: 1 << 20, style: perCall, transport: "udp",
		sessions: 15, block: 8, latCap: 4096,
	},
	{
		name: "lmsg-udp-loss1-np8",
		why:  "same ring over a bare world whose socket drops 1% of datagrams: the recovery path (go-back-N, RTO, cwnd halving) beside the clean one",
		np:   8, size: 1 << 20, style: bareCall, algo: "scatter-ring-allgather-opt",
		transport: "udp", drop: 0.01,
		sessions: 8, block: 8, latCap: 4096,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// chunk is the ring algorithms' per-rank scatter chunk: the message size
// the engine sees on most hops of this shape.
func (w workload) chunk() int {
	c := (w.size + w.np - 1) / w.np
	if w.seg > 0 && w.seg < c {
		c = w.seg
	}
	return c
}

// stampStride is the distance between round stamps in the payload: the
// head of every chunk or segment, never closer than 64 bytes.
func (w workload) stampStride() int {
	if c := w.chunk(); c > 64 {
		return c
	}
	return 64
}
