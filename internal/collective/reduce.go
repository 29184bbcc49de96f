package collective

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/mpi"
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

// combine accumulates src into dst element-wise.
func (op Op) combine(dst, src []float64) {
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpProd:
		for i := range dst {
			dst[i] *= src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
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
	if p > 1 {
		c.NextTagStream()
	}
	// All scratch — the accumulator, the decode staging and the wire
	// buffer — is pooled, so steady-state reductions on a long-lived
	// world allocate nothing here. Scratch is released only on the clean
	// path: when a Send/Recv errors the world aborted and a peer may
	// still be copying through the wire buffer, so everything is
	// abandoned to the GC instead (the engine pools' abort rule).
	accBuf := bufpool.GetF64(len(in))
	acc := accBuf.F
	copy(acc, in)
	var tmpBuf *bufpool.F64
	var wire *bufpool.Buf
	if p > 1 {
		rel := core.RelRank(rank, root, p)
		// Children are exactly the binomial-bcast children; receive them
		// smallest-first (reverse of bcast send order).
		recvMask := core.CeilPow2(p)
		if rel != 0 {
			recvMask = rel & (-rel)
		}
		tmpBuf = bufpool.GetF64(len(in))
		tmp := tmpBuf.F
		wire = bufpool.Get(8 * len(in))
		buf := wire.B
		for mask := 1; mask < recvMask; mask <<= 1 {
			child := rel + mask
			if child >= p {
				continue
			}
			src := core.AbsRank(child, root, p)
			if _, err := c.Recv(buf, src, tagReduce); err != nil {
				return fmt.Errorf("collective: reduce recv: %w", err)
			}
			decodeFloat64s(buf, tmp)
			op.combine(acc, tmp)
		}
		if rel != 0 {
			parent := core.AbsRank(rel-(rel&(-rel)), root, p)
			encodeFloat64sInto(buf, acc)
			if err := c.Send(buf, parent, tagReduce); err != nil {
				return fmt.Errorf("collective: reduce send: %w", err)
			}
		}
	}
	if rank == root {
		copy(out, acc)
	}
	accBuf.Release()
	tmpBuf.Release()
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
