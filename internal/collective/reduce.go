package collective

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/tune"
)

// Op is a reduction operator over float64 vectors.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
)

// String names the operator.
func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// combine accumulates the float64 vector src into dst element-wise,
// both encoded as encodeFloat64sInto writes them. It picks the
// operator's loop once per call, not once per element.
func (op Op) combine(dst, src []byte) {
	switch op {
	case OpSum:
		for i := 0; i < len(dst); i += 8 {
			putFloat64(dst[i:], float64At(dst[i:])+float64At(src[i:]))
		}
	case OpProd:
		for i := 0; i < len(dst); i += 8 {
			putFloat64(dst[i:], float64At(dst[i:])*float64At(src[i:]))
		}
	case OpMax:
		for i := 0; i < len(dst); i += 8 {
			if b := float64At(src[i:]); b > float64At(dst[i:]) {
				putFloat64(dst[i:], b)
			}
		}
	case OpMin:
		for i := 0; i < len(dst); i += 8 {
			if b := float64At(src[i:]); b < float64At(dst[i:]) {
				putFloat64(dst[i:], b)
			}
		}
	}
}

// float64At and putFloat64 read and write one encoded element.
func float64At(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putFloat64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// encodeFloat64sInto writes vals into b (which must hold 8*len(vals)
// bytes), so callers with pooled scratch encode without allocating.
func encodeFloat64sInto(b []byte, vals []float64) {
	for i, v := range vals {
		putFloat64(b[8*i:], v)
	}
}

func decodeFloat64s(b []byte, out []float64) {
	for i := range out {
		out[i] = float64At(b[8*i:])
	}
}

// allreduceOps reduces to rank 0 and broadcasts the result back down
// the same binomial tree.
var allreduceOps = sched.Emitter(core.ReduceOps).Then(core.BinomialOps)

// ReduceFloat64 reduces every rank's `in` vector element-wise with op
// into the root's `out` vector along a binomial tree (core.ReduceOps;
// all operators are commutative and associative up to floating-point
// rounding). Non-root ranks may pass a nil out.
func (k *Calls) ReduceFloat64(c mpi.Comm, in, out []float64, op Op, root int) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	if c.Rank() != root {
		out = nil
	} else if len(out) < len(in) {
		return fmt.Errorf("collective: reduce: out %d < in %d", len(out), len(in))
	}
	return k.fold(c, opReduce, core.ReduceOps, in, out, op, root)
}

// AllreduceFloat64 reduces element-wise with op and delivers the result
// to every rank's out vector: a reduce to rank 0 and a binomial
// broadcast from it, run as one schedule.
func (k *Calls) AllreduceFloat64(c mpi.Comm, in, out []float64, op Op) error {
	if len(out) < len(in) {
		return fmt.Errorf("collective: allreduce: out %d < in %d", len(out), len(in))
	}
	return k.fold(c, opAllreduce, allreduceOps, in, out, op, 0)
}

// fold encodes in into a pooled accumulator, runs e from root over it
// with op combining every Fold receive, and decodes the accumulator into
// out unless out is nil. The accumulator is released only on the clean
// path: when the run errors the world aborted and a peer may still be
// copying through it, so it is abandoned to the GC instead (the engine
// pools' abort rule).
func (k *Calls) fold(c mpi.Comm, name string, e sched.Emitter, in, out []float64, op Op, root int) error {
	if op < OpSum || op > OpMin {
		return fmt.Errorf("collective: %s: unknown reduction operator %v", name, op)
	}
	acc := bufpool.Get(8 * len(in))
	encodeFloat64sInto(acc.B, in)
	if err := k.run(c, name, e, tune.Decision{}, acc.B, 0, len(acc.B), root, op); err != nil {
		return fmt.Errorf("collective: %s: %w", name, err)
	}
	if out != nil {
		decodeFloat64s(acc.B, out[:len(in)])
	}
	acc.Release()
	return nil
}
