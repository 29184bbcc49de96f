package collective

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
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
// both encoded as encodeFloat64sInto writes them.
func (op Op) combine(dst, src []byte) {
	for i := 0; i < len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		switch op {
		case OpSum:
			a += b
		case OpProd:
			a *= b
		case OpMax:
			if b > a {
				a = b
			}
		case OpMin:
			if b < a {
				a = b
			}
		}
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a))
	}
}

// encodeFloat64sInto writes vals into b (which must hold 8*len(vals)
// bytes), so callers with pooled scratch encode without allocating.
func encodeFloat64sInto(b []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

func decodeFloat64s(b []byte, out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// reduceOps is the binomial broadcast tree run backwards: every rank
// receives its children's vectors, smallest subtree first, then sends its
// own, combined with theirs, to its parent.
var reduceOps = sched.Emitter(core.BinomialOps).Reverse()

// ReduceFloat64 reduces every rank's `in` vector element-wise with op
// into the root's `out` vector along a binomial tree (all operators are
// commutative and associative up to floating-point rounding). Non-root
// ranks may pass a nil out.
func ReduceFloat64(c mpi.Comm, in, out []float64, op Op, root int) error {
	ring, start := spanStart(c)
	if err := reduceFloat64(c, in, out, op, root); err != nil {
		return err
	}
	if ring != nil {
		ring.Record(opReduce, "", 0, 8*len(in), start, time.Since(start))
	}
	return nil
}

// reduceFloat64 walks the calling rank's reduceOps, combining each
// child's vector straight from the wire bytes into an encoded
// accumulator, which is what it sends on.
func reduceFloat64(c mpi.Comm, in, out []float64, op Op, root int) error {
	if op < OpSum || op > OpMin {
		return fmt.Errorf("collective: reduce: unknown reduction operator %v", op)
	}
	if err := checkRoot(c, root); err != nil {
		return err
	}
	p, rank := c.Size(), c.Rank()
	if rank == root && len(out) < len(in) {
		return fmt.Errorf("collective: reduce: out %d < in %d", len(out), len(in))
	}
	// All scratch — the ops, the accumulator and the wire buffer — is
	// pooled, so steady-state reductions on a long-lived world allocate
	// nothing here. The buffers are released only on the clean path: when
	// a Send/Recv errors the world aborted and a peer may still be copying
	// through them, so they are abandoned to the GC instead (the engine
	// pools' abort rule).
	acc := bufpool.Get(8 * len(in))
	encodeFloat64sInto(acc.B, in)
	var wire *bufpool.Buf
	if p > 1 {
		c.NextTagStream()
		pl := planPool.Get().(*Plan)
		defer planPool.Put(pl)
		pl.ops.ops = reduceOps(pl.ops.ops[:0], rank, p, root, len(acc.B), 0)
		wire = bufpool.Get(len(acc.B))
		for _, o := range pl.ops.ops {
			if o.Kind == sched.OpRecv {
				if _, err := c.Recv(wire.B, o.From, tagReduce); err != nil {
					return fmt.Errorf("collective: reduce recv: %w", err)
				}
				op.combine(acc.B, wire.B)
			} else if err := c.Send(acc.B, o.To, tagReduce); err != nil {
				return fmt.Errorf("collective: reduce send: %w", err)
			}
		}
	}
	if rank == root {
		decodeFloat64s(acc.B, out[:len(in)])
	}
	acc.Release()
	wire.Release()
	return nil
}

// AllreduceFloat64 reduces element-wise with op and delivers the result
// to every rank's out vector (reduce to rank 0, then binomial broadcast).
func AllreduceFloat64(c mpi.Comm, in, out []float64, op Op) error {
	ring, start := spanStart(c)
	if err := allreduceFloat64(c, in, out, op); err != nil {
		return err
	}
	if ring != nil {
		ring.Record(opAllreduce, "", 0, 8*len(in), start, time.Since(start))
	}
	return nil
}

// allreduceFloat64 calls the unexported reduce so the composite records
// one "allreduce" span, not a nested "reduce" inside it.
func allreduceFloat64(c mpi.Comm, in, out []float64, op Op) error {
	if len(out) < len(in) {
		return fmt.Errorf("collective: allreduce: out %d < in %d", len(out), len(in))
	}
	var root0Out []float64
	if c.Rank() == 0 {
		root0Out = out
	}
	if err := reduceFloat64(c, in, root0Out, op, 0); err != nil {
		return err
	}
	// Released only on success: on a broadcast error the wire buffer may
	// still be in a peer's hands, so it is abandoned to the GC.
	wire := bufpool.Get(8 * len(in))
	buf := wire.B
	if c.Rank() == 0 {
		encodeFloat64sInto(buf, out[:len(in)])
	}
	if err := runStatic(c, buf, 0, len(buf), 0, 0, core.BinomialOps); err != nil {
		return err
	}
	decodeFloat64s(buf, out[:len(in)])
	wire.Release()
	return nil
}
