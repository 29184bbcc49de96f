package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// VerifyResult reports what Verify observed.
type VerifyResult struct {
	// Final holds, per rank, the bytes at which the rank ends holding
	// some rank's contribution.
	Final []*IntervalSet
	// Delivered is the number of messages matched and consumed.
	Delivered int
	// InvalidTransfers counts sends that carried a byte at which their
	// sender held nothing. Verification fails when it is nonzero, but
	// the count is reported for diagnostics.
	InvalidTransfers int
	// RedundantMessages counts non-empty plain receives that left the
	// receiver's bytes as they were — the useless transmissions the
	// paper's tuned ring eliminates. The native enclosed ring has many;
	// the tuned ring must have zero.
	RedundantMessages int
	// RedundantBytes is the payload volume of those redundant messages.
	RedundantBytes int
}

// contrib is the sorted multiset of the ranks whose contributions a byte
// holds. A contrib is never written once made, so pieces and messages
// share them.
type contrib []int

// piece is a byte range [lo, hi) holding one non-empty contrib. What a
// rank holds is a sorted slice of disjoint pieces, no two touching ones
// with equal contribs; a byte no piece covers holds nothing.
type piece struct {
	lo, hi int
	from   contrib
}

func (p piece) same(q piece) bool {
	return p.lo == q.lo && p.hi == q.hi && slices.Equal(p.from, q.from)
}

// appendPiece appends [lo, hi) holding c to ps, merging it into the last
// piece when they touch and hold the same. Empty ranges and empty
// contribs append nothing.
func appendPiece(ps []piece, lo, hi int, c contrib) []piece {
	if lo >= hi || len(c) == 0 {
		return ps
	}
	if k := len(ps) - 1; k >= 0 && ps[k].hi == lo && slices.Equal(ps[k].from, c) {
		ps[k].hi = hi
		return ps
	}
	return append(ps, piece{lo, hi, c})
}

// above returns the index of the first piece of h that ends after x.
func above(h []piece, x int) int {
	return sort.Search(len(h), func(i int) bool { return h[i].hi > x })
}

// at returns what h holds at byte x, and the next byte at which that
// may change.
func at(h []piece, x int) (contrib, int) {
	switch i := above(h, x); {
	case i == len(h):
		return nil, math.MaxInt
	case x < h[i].lo:
		return nil, h[i].lo
	default:
		return h[i].from, h[i].hi
	}
}

// read appends to dst what h holds over [lo, hi), at offsets relative to
// lo, and reports whether it holds something at every byte.
func read(dst, h []piece, lo, hi int) ([]piece, bool) {
	x, whole := lo, true
	for i := above(h, lo); i < len(h) && h[i].lo < hi; i++ {
		whole = whole && h[i].lo <= x
		x = min(h[i].hi, hi)
		dst = append(dst, piece{max(h[i].lo, lo) - lo, x - lo, h[i].from})
	}
	return dst, whole && x >= hi
}

// splice returns h with what it holds over [lo, hi) replaced by ps, whose
// offsets are relative to lo; out is scratch.
func splice(h []piece, lo, hi int, ps []piece, out *[]piece) []piece {
	i := above(h, lo-1)
	j := i
	for j < len(h) && h[j].lo <= hi {
		j++
	}
	o := (*out)[:0]
	for _, p := range h[i:j] {
		o = appendPiece(o, p.lo, min(p.hi, lo), p.from)
	}
	for _, p := range ps {
		o = appendPiece(o, p.lo+lo, p.hi+lo, p.from)
	}
	for _, p := range h[i:j] {
		o = appendPiece(o, max(p.lo, hi), p.hi, p.from)
	}
	*out = o
	return slices.Replace(h, i, j, o...)
}

// fold appends to dst the pieces over [0, n) that hold, at every byte,
// the multiset sum of what a and b hold there.
func fold(dst, a, b []piece, n int) []piece {
	for x := 0; x < n; {
		ca, ea := at(a, x)
		cb, eb := at(b, x)
		next := min(ea, eb, n)
		dst = appendPiece(dst, x, next, slices.Sorted(slices.Values(slices.Concat(ca, cb))))
		x = next
	}
	return dst
}

// sum returns what the ranks holding hs hold together, over [0, n).
func sum(hs [][]piece, n int) []piece {
	if len(hs) == 1 {
		return hs[0]
	}
	return fold(nil, sum(hs[:len(hs)/2], n), sum(hs[len(hs)/2:], n), n)
}

// message is an in-flight send half: its length, what its sender held
// over its range, at offsets relative to it, and whom the sender had
// heard from.
type message struct {
	n      int
	pieces []piece
	heard  []uint64
}

// chanKey names a channel: messages on it match FIFO.
type chanKey struct{ src, dst, tag int }

// queue holds a channel's in-flight messages from head on, rewinding when empty.
type queue struct {
	msgs []message
	head int
}

// verifier is the state of one Verify run.
type verifier struct {
	pr   *Program
	hold [][]piece // per rank, what it holds
	// heard holds, per rank, a bit per rank it has heard from. A rank's
	// set is replaced, never written, once it grows: messages share it.
	heard    [][]uint64
	inflight map[chanKey]*queue
	res      VerifyResult
	// slab holds the messages' pieces, so that a message allocates
	// nothing of its own; cur, folded and out are scratch.
	slab, cur, folded, out []piece
}

// Verify abstractly executes the program pr as the collective op, and
// checks that it is deadlock-free, that it moves only what its senders
// hold, and that it ends where op must.
//
// Every byte of every rank holds the ranks whose contributions it carries.
// A send carries what its sender holds over its range, and is invalid if
// the sender holds nothing at one of those bytes. A plain receive
// replaces what the receiver holds there, a Fold receive adds to it; a
// plain receive that changes none of its bytes is redundant. A message
// also carries who its sender has heard from, which the receiver adds.
//
// op names the collective as the executor's spans do. It fixes what each
// rank starts holding, and the ranks that must end holding, over [0, N)
// or their own chunk, exactly what all ranks started with together.
// Chunk k, in the three collectives that use chunks, is
// [k·N/P, (k+1)·N/P) and belongs to the rank k places after the root;
// P must divide N.
//
//   - "bcast": the root starts with {root} over [0, N); ends: every rank.
//   - "scatter": starts as "bcast"; ends: every rank, over its chunk.
//   - "gather": each rank starts with {itself} over its chunk; ends: the root.
//   - "allgather": starts as "gather"; ends: every rank.
//   - "reduce": each rank starts with {itself} over [0, N); ends: the root.
//   - "allreduce": starts as "reduce"; ends: every rank.
//   - "barrier": nobody holds anything; every rank ends having heard from all.
//   - "": starts as "bcast", with no end condition — for the phases and
//     sub-group programs that compose into a collective.
//
// Sends complete at once and receives block until matched (a Sendrecv's
// send half is issued when the op is reached, as MPI_Sendrecv's halves
// run concurrently). Matching is FIFO per (source, destination, tag),
// mirroring MPI's non-overtaking rule for single-threaded ranks. A
// receive must be as long as the message it matches, and a program that
// ends with a message unmatched fails, so Verify rejects every program
// Validate does.
func Verify(pr *Program, op string) (*VerifyResult, error) {
	if err := pr.checkOps(); err != nil {
		return nil, err
	}
	if (op == "scatter" || op == "gather" || op == "allgather") && pr.N%pr.P != 0 {
		return nil, fmt.Errorf("sched: verify %q: %s of %d bytes over %d ranks: chunks must be equal", pr.Name, op, pr.N, pr.P)
	}
	v := &verifier{pr: pr, hold: make([][]piece, pr.P), heard: make([][]uint64, pr.P), inflight: map[chanKey]*queue{}}
	for r := range pr.P {
		lo, hi := 0, pr.N
		switch op {
		case "", "bcast", "scatter":
			if r != pr.Root {
				hi = 0
			}
		case "gather", "allgather":
			lo, hi = v.chunk(r)
		case "barrier":
			hi = 0
		case "reduce", "allreduce":
		default:
			return nil, fmt.Errorf("sched: verify %q: unknown collective %q", pr.Name, op)
		}
		v.hold[r] = appendPiece(nil, lo, hi, contrib{r})
		v.heard[r] = make([]uint64, (pr.P+63)/64)
		v.heard[r][r/64] = 1 << (r % 64)
	}
	want := sum(v.hold, pr.N) // what all ranks start with together
	if err := v.run(); err != nil {
		return nil, err
	}
	res := &v.res
	res.Final = make([]*IntervalSet, pr.P)
	for r, h := range v.hold {
		res.Final[r] = NewIntervalSet()
		for _, p := range h {
			res.Final[r].Add(p.lo, p.hi)
		}
	}
	if res.InvalidTransfers > 0 {
		return res, fmt.Errorf("sched: verify %q: %d transfers carried bytes the sender did not own",
			pr.Name, res.InvalidTransfers)
	}
	for r := range pr.P {
		lo, hi := 0, pr.N
		switch {
		case op == "scatter":
			lo, hi = v.chunk(r)
		case op == "barrier":
			for q := range pr.P {
				if v.heard[r][q/64]&(1<<(q%64)) == 0 {
					return res, fmt.Errorf("sched: verify %q: rank %d leaves without hearing from rank %d", pr.Name, r, q)
				}
			}
			hi = 0
		case op == "" || r != pr.Root && (op == "gather" || op == "reduce"):
			hi = 0
		}
		for x := lo; x < hi; {
			got, eg := at(v.hold[r], x)
			w, ew := at(want, x)
			next := min(eg, ew, hi)
			if !slices.Equal(got, w) {
				return res, fmt.Errorf("sched: verify %q: rank %d ends holding %v at [%d,%d), want %v",
					pr.Name, r, []int(got), x, next, []int(w))
			}
			x = next
		}
	}
	return res, nil
}

// chunk returns the byte range of rank r's chunk.
func (v *verifier) chunk(r int) (lo, hi int) {
	c := v.pr.N / v.pr.P
	rel := (r - v.pr.Root + v.pr.P) % v.pr.P
	return rel * c, (rel + 1) * c
}

// send issues the send half of op from rank r.
func (v *verifier) send(r int, op Op) {
	if cap(v.slab)-len(v.slab) < len(v.hold[r]) {
		v.slab = make([]piece, 0, 1024+len(v.hold[r]))
	}
	start, whole := len(v.slab), false
	v.slab, whole = read(v.slab, v.hold[r], op.SendOff, op.SendOff+op.SendLen)
	if !whole {
		v.res.InvalidTransfers++
	}
	k := chanKey{r, op.To, op.Tag}
	q := v.inflight[k]
	if q == nil {
		q = &queue{}
		v.inflight[k] = q
	}
	q.msgs = append(q.msgs, message{op.SendLen, v.slab[start:len(v.slab):len(v.slab)], v.heard[r]})
}

// recv tries to match the receive half of op on rank r, and applies the
// message it matches, which must be as long as the receive.
func (v *verifier) recv(r int, op Op) (bool, error) {
	q := v.inflight[chanKey{op.From, r, op.Tag}]
	if q == nil || q.head == len(q.msgs) {
		return false, nil
	}
	m := q.msgs[q.head]
	if m.n != op.RecvLen {
		return false, fmt.Errorf("sched: verify %q: channel %d->%d tag %d: send %d bytes, recv %d bytes",
			v.pr.Name, op.From, r, op.Tag, m.n, op.RecvLen)
	}
	if q.head++; q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	}
	lo, hi := op.RecvOff, op.RecvOff+op.RecvLen
	ps := m.pieces
	if op.RecvLen > 0 {
		cur, _ := read(v.cur[:0], v.hold[r], lo, hi)
		v.cur = cur
		if op.Fold {
			ps = fold(v.folded[:0], cur, ps, op.RecvLen)
			v.folded = ps
		} else if slices.EqualFunc(cur, ps, piece.same) {
			v.res.RedundantMessages++
			v.res.RedundantBytes += op.RecvLen
		}
		v.hold[r] = splice(v.hold[r], lo, hi, ps, &v.out)
	}
	for w := range m.heard {
		if m.heard[w]&^v.heard[r][w] != 0 {
			u := slices.Clone(v.heard[r])
			for w := range u {
				u[w] |= m.heard[w]
			}
			v.heard[r] = u
			break
		}
	}
	v.res.Delivered++
	return true, nil
}

// run executes the program to its end, or to a deadlock, and then
// rejects a message no receive matched.
func (v *verifier) run() error {
	pr := v.pr
	pc := make([]int, pr.P)      // next op index per rank
	issued := make([]bool, pr.P) // send half of current Sendrecv already issued
	for {
		progressed, done := false, true
		for r, ops := range pr.Ranks {
			for ; pc[r] < len(ops); pc[r]++ {
				op := ops[pc[r]]
				if op.Kind == OpSend {
					v.send(r, op)
					progressed = true
					continue
				}
				if op.Kind == OpSendrecv && !issued[r] {
					v.send(r, op)
					issued[r], progressed = true, true
				}
				ok, err := v.recv(r, op)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				issued[r], progressed = false, true
			}
			done = done && pc[r] == len(ops)
		}
		if done {
			for k, q := range v.inflight {
				if left := len(q.msgs) - q.head; left > 0 {
					return fmt.Errorf("sched: verify %q: channel %d->%d tag %d has %d sends without recvs",
						pr.Name, k.src, k.dst, k.tag, left)
				}
			}
			return nil
		}
		if progressed {
			continue
		}
		var b strings.Builder
		for r, ops := range pr.Ranks {
			if pc[r] < len(ops) {
				fmt.Fprintf(&b, "\n  rank %d at op %d: %s", r, pc[r], ops[pc[r]])
			}
		}
		return fmt.Errorf("sched: verify %q: deadlock; blocked ranks:%s", pr.Name, b.String())
	}
}
