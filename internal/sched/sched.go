// Package sched defines a communication-schedule intermediate
// representation (IR) for collective algorithms.
//
// A Program is the complete, statically known communication pattern of one
// collective operation: for every rank, an ordered list of point-to-point
// operations (sends, receives, and combined send-receives) with explicit
// buffer offsets and lengths. The broadcast algorithms studied in the
// reproduced paper (binomial scatter, enclosed ring allgather, tuned
// non-enclosed ring allgather, recursive-doubling allgather) are all
// data-independent, so their entire schedule can be generated up front
// from (P, root, nbytes).
//
// An algorithm is written once, as an Emitter: the function that lists one
// rank's operations. Everything else consumes that one definition:
//
//   - Then and OnGroup compose emitters into larger ones: one phase after
//     another, and a phase run on an ordered sub-group of the ranks (the
//     multi-core aware broadcasts are three such phases over the node
//     map; a node-aware ring is a ring on a permutation); Reverse runs
//     one backwards (a scatter reversed is a gather), and Elide drops its
//     redundant transfers (the tuned ring is the enclosed one elided);
//   - Generate loops an Emitter over all ranks into a Program;
//   - Verify runs a Program abstractly as a named collective, tracking
//     which ranks' contributions every byte of every rank holds, and
//     checks that it is deadlock-free, that no transfer carries a byte
//     its sender holds nothing at, and that it ends as the collective
//     must (a broadcast delivers the root's bytes everywhere, a reduction
//     every contribution exactly once, a barrier news of every rank);
//   - internal/netsim replays Programs against a virtual-time network
//     model to predict completion times at paper scale, which is what the
//     auto-tuner in internal/tune measures;
//   - the executor in internal/collective calls the Emitter for the
//     calling rank alone and runs those operations on the real engine.
//
// A receive marked Fold combines what arrives into its bytes instead of
// overwriting them, which turns a tree run backwards into a reduction.
// Verify adds the contributions a Fold brings to those already held;
// netsim moves it as a plain receive and does not charge the combine.
package sched

import (
	"fmt"
	"slices"
	"strings"
)

// OpKind discriminates the three point-to-point operation shapes used by
// the broadcast algorithms.
type OpKind uint8

const (
	// OpSend is a blocking send of Program buffer bytes
	// [SendOff, SendOff+SendLen) to rank To.
	OpSend OpKind = iota
	// OpRecv is a blocking receive into [RecvOff, RecvOff+RecvLen)
	// from rank From.
	OpRecv
	// OpSendrecv is a combined operation: the send and receive halves
	// proceed concurrently and the operation completes when both have
	// completed (MPI_Sendrecv semantics).
	OpSendrecv
)

// String returns the lower-case MPI-style name of the kind.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpSendrecv:
		return "sendrecv"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one point-to-point operation executed by a single rank.
//
// For OpSend only the To/Send* fields are meaningful; for OpRecv only the
// From/Recv* fields; OpSendrecv uses both halves. Zero-length operations
// are legal: MPI transfers a zero-byte payload (an envelope) and the
// paper's transfer counts include them, so the IR keeps them explicit.
type Op struct {
	Kind OpKind

	// Fold marks an OpRecv whose bytes are combined into
	// [RecvOff, RecvOff+RecvLen) with the collective's reduction
	// operator rather than written over it. Verify adds the message's
	// contributions to the receiver's; netsim moves it as a plain
	// receive and does not charge the combine's time.
	Fold bool

	// To is the destination rank of the send half.
	To int
	// SendOff is the byte offset of the outgoing data in the collective's
	// buffer.
	SendOff int
	// SendLen is the number of outgoing bytes (may be zero).
	SendLen int

	// From is the source rank of the receive half.
	From int
	// RecvOff is the byte offset at which incoming data lands.
	RecvOff int
	// RecvLen is the number of incoming bytes (may be zero).
	RecvLen int

	// Tag is the message tag; matching sends and receives must agree.
	Tag int

	// Step is the logical algorithm step this operation belongs to
	// (1-based for ring steps, 0 for scatter-phase operations). It is
	// diagnostic only and does not affect matching.
	Step int
}

// String renders the op compactly, e.g. "sendrecv(to=3 [8,12) from=1 [0,4) tag=7)".
func (o Op) String() string {
	switch o.Kind {
	case OpSend:
		return fmt.Sprintf("send(to=%d [%d,%d) tag=%d)", o.To, o.SendOff, o.SendOff+o.SendLen, o.Tag)
	case OpRecv:
		return fmt.Sprintf("recv(from=%d [%d,%d) tag=%d)", o.From, o.RecvOff, o.RecvOff+o.RecvLen, o.Tag)
	case OpSendrecv:
		return fmt.Sprintf("sendrecv(to=%d [%d,%d) from=%d [%d,%d) tag=%d)",
			o.To, o.SendOff, o.SendOff+o.SendLen, o.From, o.RecvOff, o.RecvOff+o.RecvLen, o.Tag)
	default:
		return fmt.Sprintf("op(kind=%d)", o.Kind)
	}
}

// Check reports whether the op is well-formed for rank self of a p-rank
// collective over an n-byte buffer: a known kind, peers inside the
// communicator and distinct from self, byte ranges inside the buffer,
// and Fold on a plain receive only.
func (o *Op) Check(p, n, self int) error {
	if o.Kind > OpSendrecv {
		return fmt.Errorf("unknown kind %d", o.Kind)
	}
	if o.Fold && o.Kind != OpRecv {
		return fmt.Errorf("fold on a %s", o.Kind)
	}
	if o.Kind != OpRecv {
		switch {
		case o.To < 0 || o.To >= p:
			return fmt.Errorf("dest out of range")
		case o.To == self:
			return fmt.Errorf("self send")
		case o.SendLen < 0 || o.SendOff < 0 || o.SendLen > n || o.SendOff > n-o.SendLen:
			return fmt.Errorf("send range outside buffer of %d bytes", n)
		}
	}
	if o.Kind != OpSend {
		switch {
		case o.From < 0 || o.From >= p:
			return fmt.Errorf("source out of range")
		case o.From == self:
			return fmt.Errorf("self receive")
		case o.RecvLen < 0 || o.RecvOff < 0 || o.RecvLen > n || o.RecvOff > n-o.RecvLen:
			return fmt.Errorf("recv range outside buffer of %d bytes", n)
		}
	}
	return nil
}

// Program is a complete static communication schedule for one collective
// over P ranks and an N-byte buffer.
type Program struct {
	// Name identifies the generating algorithm, e.g. "ring-allgather-tuned".
	Name string
	// P is the number of participating ranks.
	P int
	// N is the collective buffer size in bytes.
	N int
	// Root is the broadcast root rank.
	Root int
	// Ranks holds the per-rank operation lists; len(Ranks) == P.
	Ranks [][]Op
}

// New returns an empty Program with per-rank op slices allocated.
func New(name string, p, n, root int) *Program {
	ranks := make([][]Op, p)
	return &Program{Name: name, P: p, N: n, Root: root, Ranks: ranks}
}

// Add appends op to rank's operation list.
func (pr *Program) Add(rank int, op Op) {
	pr.Ranks[rank] = append(pr.Ranks[rank], op)
}

// Emitter appends to dst the operations one rank executes, in program
// order, in a collective over p ranks rooted at root with an n-byte
// buffer, and returns the extended slice. seg is the segment size of
// pipelined algorithms; the others ignore it. It is a pure function of
// its arguments, allocates nothing beyond growing dst, and requires
// 0 <= rank, root < p and n >= 0.
type Emitter func(dst []Op, rank, p, root, n, seg int) []Op

// Then returns the emitter of the two-phase algorithm that runs e's
// operations and then next's on every rank.
func (e Emitter) Then(next Emitter) Emitter {
	return func(dst []Op, rank, p, root, n, seg int) []Op {
		return next(e(dst, rank, p, root, n, seg), rank, p, root, n, seg)
	}
}

// Reverse returns the emitter of e run backwards: every rank runs e's
// operations in reverse order, each with its send and receive halves
// swapped, so the data that flowed along an edge flows back along it —
// a scatter reversed is a gather.
func (e Emitter) Reverse() Emitter {
	return func(dst []Op, rank, p, root, n, seg int) []Op {
		start := len(dst)
		dst = e(dst, rank, p, root, n, seg)
		ops := dst[start:]
		slices.Reverse(ops)
		for i := range ops {
			o := &ops[i]
			switch o.Kind {
			case OpSend:
				o.Kind = OpRecv
			case OpRecv:
				o.Kind = OpSend
			}
			o.To, o.From = o.From, o.To
			o.SendOff, o.RecvOff = o.RecvOff, o.SendOff
			o.SendLen, o.RecvLen = o.RecvLen, o.SendLen
		}
		return dst
	}
}

// Generate builds the whole program of an algorithm by running its
// emitter for every rank. It panics on arguments no collective accepts
// (p <= 0, root outside [0, p), n < 0).
func Generate(name string, e Emitter, p, root, n, seg int) *Program {
	if p <= 0 {
		panic(fmt.Sprintf("sched: schedule requires p > 0, got %d", p))
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("sched: root %d out of range for p=%d", root, p))
	}
	if n < 0 {
		panic(fmt.Sprintf("sched: schedule requires n >= 0, got %d", n))
	}
	// Every rank emits into one scratch slice, which keeps the capacity
	// the largest rank grew it to, and keeps an exact-size copy of its
	// own ops.
	pr := New(name, p, n, root)
	var scratch []Op
	for rank := range pr.Ranks {
		scratch = e(scratch[:0], rank, p, root, n, seg)
		if len(scratch) > 0 {
			pr.Ranks[rank] = slices.Clone(scratch)
		}
	}
	return pr
}

// Stats summarizes the traffic a Program generates.
type Stats struct {
	// Messages counts individual message transfers (a Sendrecv counts as
	// one send on the sending rank; every send half is one message).
	Messages int
	// NonEmptyMessages counts messages with payload length > 0.
	NonEmptyMessages int
	// Bytes is the total payload volume over all messages.
	Bytes int
	// MaxStep is the largest Step label present.
	MaxStep int
}

// Stats computes traffic statistics by walking all send halves.
func (pr *Program) Stats() Stats {
	var s Stats
	for r := 0; r < pr.P; r++ {
		for _, op := range pr.Ranks[r] {
			if op.Step > s.MaxStep {
				s.MaxStep = op.Step
			}
			if op.Kind == OpSend || op.Kind == OpSendrecv {
				s.Messages++
				if op.SendLen > 0 {
					s.NonEmptyMessages++
				}
				s.Bytes += op.SendLen
			}
		}
	}
	return s
}

// OpsOf returns rank's operation list (nil if rank is out of range).
func (pr *Program) OpsOf(rank int) []Op {
	if rank < 0 || rank >= len(pr.Ranks) {
		return nil
	}
	return pr.Ranks[rank]
}

// Validate performs structural checks: those of checkOps, and globally
// that every send half has exactly one matching receive half with equal
// payload length (matched FIFO per (src, dst, tag) channel, mirroring
// MPI's non-overtaking rule).
func (pr *Program) Validate() error {
	if err := pr.checkOps(); err != nil {
		return err
	}
	sends := map[chanKey][]int{} // payload lengths in program order
	recvs := map[chanKey][]int{}
	for r := 0; r < pr.P; r++ {
		for _, op := range pr.Ranks[r] {
			if op.Kind != OpRecv {
				k := chanKey{r, op.To, op.Tag}
				sends[k] = append(sends[k], op.SendLen)
			}
			if op.Kind != OpSend {
				k := chanKey{op.From, r, op.Tag}
				recvs[k] = append(recvs[k], op.RecvLen)
			}
		}
	}
	for k, ss := range sends {
		rr := recvs[k]
		if len(ss) != len(rr) {
			return fmt.Errorf("sched: program %q: channel %d->%d tag %d has %d sends but %d recvs",
				pr.Name, k.src, k.dst, k.tag, len(ss), len(rr))
		}
		for i := range ss {
			if ss[i] != rr[i] {
				return fmt.Errorf("sched: program %q: channel %d->%d tag %d message %d: send %d bytes, recv %d bytes",
					pr.Name, k.src, k.dst, k.tag, i, ss[i], rr[i])
			}
		}
		delete(recvs, k)
	}
	for k := range recvs {
		return fmt.Errorf("sched: program %q: channel %d->%d tag %d has recvs without sends",
			pr.Name, k.src, k.dst, k.tag)
	}
	return nil
}

// checkOps checks the program's shape and each op against (P, N, rank):
// the part of Validate that matches no channels.
func (pr *Program) checkOps() error {
	if pr.P <= 0 {
		return fmt.Errorf("sched: program %q: nonpositive P=%d", pr.Name, pr.P)
	}
	if len(pr.Ranks) != pr.P {
		return fmt.Errorf("sched: program %q: len(Ranks)=%d want %d", pr.Name, len(pr.Ranks), pr.P)
	}
	if pr.Root < 0 || pr.Root >= pr.P {
		return fmt.Errorf("sched: program %q: root %d out of range", pr.Name, pr.Root)
	}
	for r, ops := range pr.Ranks {
		for i, op := range ops {
			if err := op.Check(pr.P, pr.N, r); err != nil {
				return fmt.Errorf("sched: program %q rank %d op %d (%s): %w", pr.Name, r, i, op, err)
			}
		}
	}
	return nil
}

// Dump renders the whole program, one line per op, for debugging and for
// the schematic-figure tests.
func (pr *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q P=%d N=%d root=%d\n", pr.Name, pr.P, pr.N, pr.Root)
	for r := 0; r < pr.P; r++ {
		fmt.Fprintf(&b, "  rank %d:\n", r)
		for _, op := range pr.Ranks[r] {
			fmt.Fprintf(&b, "    step %d: %s\n", op.Step, op)
		}
	}
	return b.String()
}
