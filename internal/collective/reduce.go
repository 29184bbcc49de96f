package collective

import (
	"fmt"

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
// both viewed in place as float64s. It picks the operator's loop once
// per call, not once per element.
func (op Op) combine(dst, src []byte) {
	d, s := asFloat64s(dst), asFloat64s(src)
	s = s[:len(d)]
	switch op {
	case OpSum:
		for i := range d {
			d[i] += s[i]
		}
	case OpProd:
		for i := range d {
			d[i] *= s[i]
		}
	case OpMax:
		for i, b := range s {
			if b > d[i] {
				d[i] = b
			}
		}
	case OpMin:
		for i, b := range s {
			if b < d[i] {
				d[i] = b
			}
		}
	}
}

// allreduceOps reduces to rank 0 and broadcasts the result back down
// the same binomial tree.
var allreduceOps = sched.Emitter(core.ReduceOps).Then(core.BinomialOps)

// ReduceFloat64 reduces every rank's `in` vector element-wise with op
// into the root's `out` vector along a binomial tree (core.ReduceOps;
// all operators are commutative and associative up to floating-point
// rounding). Non-root ranks may pass a nil out; the root's out may be
// its in. No rank's in is written otherwise.
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
// to every rank's out vector, which may be its in: a reduce to rank 0
// and a binomial broadcast from it, run as one schedule.
func (k *Calls) AllreduceFloat64(c mpi.Comm, in, out []float64, op Op) error {
	if len(out) < len(in) {
		return fmt.Errorf("collective: allreduce: out %d < in %d", len(out), len(in))
	}
	return k.fold(c, opAllreduce, allreduceOps, in, out, op, 0)
}

// fold runs e from root over the rank's working vector, as its bytes,
// with op combining every Fold receive into it in place. That vector is
// out (which may be in) with in copied into it, or, on a non-root reduce
// rank, whose out is nil, pooled scratch, released only on the clean
// path: when the run errors the world aborted and a peer may still be
// copying through it, so it is abandoned to the GC instead.
func (k *Calls) fold(c mpi.Comm, name string, e sched.Emitter, in, out []float64, op Op, root int) error {
	if op < OpSum || op > OpMin {
		return fmt.Errorf("collective: %s: unknown reduction operator %v", name, op)
	}
	var scratch *bufpool.Buf
	if out == nil {
		scratch = bufpool.Get(8 * len(in))
		out = asFloat64s(scratch.B)
	}
	copy(out, in)
	buf := AsBytes(out[:len(in)])
	if err := k.run(c, name, e, tune.Decision{}, buf, 0, len(buf), root, op); err != nil {
		return fmt.Errorf("collective: %s: %w", name, err)
	}
	scratch.Release() // a nil scratch releases nothing
	return nil
}
