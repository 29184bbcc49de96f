// Package bench implements the paper's measurement protocol and the
// parameter sweeps behind every figure of the evaluation section.
//
// The simulated harness, SimMeasurer, replays a decision's whole
// schedule (collective.Schedule) on the netsim cluster model at full
// paper scale (up to 256 ranks and 32 MB messages), regenerating the
// series of Figures 6(a-c), 7 and 8. It is one of the auto-tuner's two
// tune.Measurers; the other is the real engine's (internal/measure), and
// CrossCheck runs tune.AutoTune with both over one grid. The paper's
// user-level wall-clock protocol itself (barrier, a loop of broadcasts,
// barrier, bandwidth = message size over mean iteration time, in base-2
// MB/s) is `bcast bench`, which shares this package's Result and -algo
// vocabulary.
package bench

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/tune"
)

// MiB is 2^20 bytes; the paper uses megabytes "in the base-2 sense".
const MiB = 1 << 20

// Result is one measured point.
type Result struct {
	// Bytes is the broadcast message size.
	Bytes int
	// Seconds is the time per broadcast iteration.
	Seconds float64
	// MBps is Bytes/Seconds in base-2 MB/s.
	MBps float64
}

// NewResult is the point for bytes broadcast in seconds per iteration.
func NewResult(bytes int, seconds float64) Result {
	r := Result{Bytes: bytes, Seconds: seconds}
	if seconds > 0 {
		r.MBps = float64(bytes) / seconds / MiB
	}
	return r
}

// algoAliases are the short -algo spellings of the paper's two
// broadcasts; every other spelling is a registry name or auto / auto-opt.
var algoAliases = map[string]string{
	"native": tune.RingNative,
	"opt":    tune.RingOpt,
}

// ParseAlgo resolves the -algo vocabulary the CLI tools share onto the
// module's selection options: a registry algorithm name (or the alias
// native / opt) pins that algorithm; auto and auto-opt select through the
// MPICH3 dispatch with the native or the tuned ring.
func ParseAlgo(name string) (collective.Options, error) {
	switch name {
	case "auto":
		return collective.Options{Tuner: tune.MPICH3{}}, nil
	case "auto-opt":
		return collective.Options{Tuner: tune.MPICH3{Tuned: true}}, nil
	}
	if full, ok := algoAliases[name]; ok {
		name = full
	}
	o := collective.Options{Algorithm: name}
	if name == "" {
		return o, fmt.Errorf("bench: -algo: empty algorithm name")
	}
	if err := o.Validate(); err != nil {
		return o, fmt.Errorf("bench: -algo %q: %w (or native|opt|auto|auto-opt)", name, err)
	}
	return o, nil
}
