package collective

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// uncached is the nil Calls: every collective called through it binds a
// Plan for that call only, as the package-level Broadcast does.
var uncached *Calls

// TestCallsEvictsLeastRecentlyUsed cycles one rank loop through more
// (n, root, algorithm, seg) keys than a Calls holds, with a hot key
// between them: the hot key stays cached, every other key is bound anew
// and evicted in turn, and every round of every rank is byte-identical to
// its root's payload.
func TestCallsEvictsLeastRecentlyUsed(t *testing.T) {
	const p = 8
	type key struct {
		n, root int
		d       tune.Decision
	}
	var keys []key
	for _, algo := range []string{tune.Binomial, tune.RingOpt, tune.RingOptSeg} {
		for _, root := range []int{0, 5} {
			for _, n := range []int{1000, 4<<10 + 3} {
				keys = append(keys, key{n, root, tune.Decision{Algorithm: algo, SegSize: 256}})
			}
		}
	}
	if len(keys) <= callsCap {
		t.Fatalf("%d keys fit a cache of %d", len(keys), callsCap)
	}
	hot := keys[0]
	var seq []key
	for range 3 {
		for _, k := range keys[1:] {
			seq = append(seq, k, hot)
		}
	}
	payload := pattern(8<<10 + len(seq))
	err := engine.RunWith(engine.Options{NP: p, Topology: topology.Blocked(p, 4), Timeout: time.Minute}, func(c mpi.Comm) error {
		var calls Calls
		defer calls.Release()
		var hotPlan *Plan
		for i, k := range seq {
			buf := bytes.Repeat([]byte{byte(c.Rank())}, k.n)
			want := payload[i : i+k.n]
			if c.Rank() == k.root {
				copy(buf, want)
			}
			if err := calls.Broadcast(c, buf, k.root, Options{Algorithm: k.d.Algorithm, SegSize: k.d.SegSize}); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d round %d (%+v): buffer mismatch (first diff at %d)", c.Rank(), i, k, firstDiff(buf, want))
			}
			if k == hot && hotPlan == nil {
				hotPlan = calls.plans[0]
			}
			if p := calls.plans[0]; p.n != k.n || p.root != k.root || p.dec != k.d {
				return fmt.Errorf("round %d: the most recent Plan is %d bytes from %d, %+v; want %+v", i, p.n, p.root, p.dec, k)
			}
			if k == hot && calls.plans[0] != hotPlan {
				return fmt.Errorf("round %d: the hot key was evicted", i)
			}
		}
		if calls.n != callsCap {
			return fmt.Errorf("%d Plans held, want a full cache of %d", calls.n, callsCap)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCallsBindErrorCachesNothing holds a Calls to RunDecision's errors:
// an unknown algorithm, a negative segment, a root outside the
// communicator and a capability refusal fail with the text a per-call
// broadcast has always failed with, and leave the cache as it was.
func TestCallsBindErrorCachesNothing(t *testing.T) {
	const p = 4
	err := engine.RunWith(engine.Options{NP: p, Timeout: time.Minute}, func(c mpi.Comm) error {
		var calls Calls
		defer calls.Release()
		buf := make([]byte, 100)
		if err := calls.Broadcast(c, buf, 0, Options{}); err != nil {
			return err
		}
		for _, bad := range []struct {
			root int
			d    tune.Decision
		}{
			{0, tune.Decision{Algorithm: "no-such-algorithm"}},
			{0, tune.Decision{Algorithm: tune.RingOptSeg, SegSize: -1}},
			{p, tune.Decision{Algorithm: tune.Binomial}},
			{0, tune.Decision{Algorithm: tune.SMP}},
		} {
			o := Options{Tuner: fixedTuner(bad.d)}
			err := calls.Broadcast(c, buf, bad.root, o)
			want := RunDecision(c, buf, bad.root, bad.d)
			if err == nil || want == nil || err.Error() != want.Error() {
				return fmt.Errorf("%+v from root %d: got %v, RunDecision says %v", bad.d, bad.root, err, want)
			}
			if calls.n != 1 || calls.plans[0].dec.Algorithm != tune.Binomial {
				return fmt.Errorf("%+v: the failed bind changed the cache (%d held)", bad.d, calls.n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fixedTuner decides d whatever the environment.
type fixedTuner tune.Decision

func (f fixedTuner) Decide(tune.Env) tune.Decision { return tune.Decision(f) }

// TestCallsKeyEveryOperation holds one Calls to its key across
// operations. Six collectives of the same 64 bytes from root 0 — a
// broadcast, an allgather, a scatter, a gather, a reduce and an
// allreduce — and a barrier hold seven Plans, although all but the
// broadcast share the zero decision, and only the broadcast's binds its
// edges; calling each again binds nothing;
// eviction takes the least recently used Plan whatever its operation;
// and a scatter from a root outside the communicator caches nothing.
// Every call also checks its bytes, so a Plan run for the wrong
// operation fails here as well.
func TestCallsKeyEveryOperation(t *testing.T) {
	const p, chunk = 4, 16
	err := engine.RunWith(engine.Options{NP: p, Timeout: time.Minute}, func(c mpi.Comm) error {
		var k Calls
		defer k.Release()
		me := c.Rank()
		bcast := func(n int) func() error {
			return func() error {
				buf := bytes.Repeat([]byte{byte(me)}, n)
				if err := k.Broadcast(c, buf, 0, Options{Algorithm: tune.Binomial}); err != nil {
					return err
				}
				if !bytes.Equal(buf, bytes.Repeat([]byte{0}, n)) {
					return errors.New("broadcast: wrong bytes")
				}
				return nil
			}
		}
		scatter := func(chunk int) func() error {
			return func() error {
				all, got := pattern(p*chunk), make([]byte, chunk)
				if err := k.Scatter(c, all, chunk, got, 0); err != nil {
					return err
				}
				if !bytes.Equal(got, all[me*chunk:(me+1)*chunk]) {
					return errors.New("scatter: wrong chunk")
				}
				return nil
			}
		}
		all := pattern(p * chunk)
		vec := make([]float64, chunk/2) // 64 bytes
		for i := range vec {
			vec[i] = float64(me + i)
		}
		// sum is what the ranks' vectors add up to at element 0.
		const sum = p * (p - 1) / 2
		ops := []struct {
			name string
			call func() error
		}{
			{"bcast", bcast(p * chunk)},
			{"allgather", func() error {
				got := make([]byte, p*chunk)
				if err := k.Allgather(c, all[me*chunk:(me+1)*chunk], chunk, got); err != nil {
					return err
				}
				if !bytes.Equal(got, all) {
					return errors.New("allgather: wrong bytes")
				}
				return nil
			}},
			{"scatter", scatter(chunk)},
			{"gather", func() error {
				got := make([]byte, p*chunk)
				if err := k.Gather(c, all[me*chunk:(me+1)*chunk], chunk, got, 0); err != nil {
					return err
				}
				if me == 0 && !bytes.Equal(got, all) {
					return errors.New("gather: wrong bytes")
				}
				return nil
			}},
			{"reduce", func() error {
				out := make([]float64, len(vec))
				if err := k.ReduceFloat64(c, vec, out, OpSum, 0); err != nil {
					return err
				}
				if me == 0 && out[0] != sum {
					return fmt.Errorf("reduce: %v, want %d", out[0], sum)
				}
				return nil
			}},
			{"allreduce", func() error {
				out := make([]float64, len(vec))
				if err := k.AllreduceFloat64(c, vec, out, OpSum); err != nil {
					return err
				}
				if out[0] != sum {
					return fmt.Errorf("allreduce: %v, want %d", out[0], sum)
				}
				return nil
			}},
			{"barrier", func() error { return k.Barrier(c) }},
		}
		plans := map[string]*Plan{} // the Plan each call ran, by name
		call := func(name string, f func() error) error {
			if err := f(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			plans[name] = k.plans[0]
			return nil
		}
		for round := range 2 {
			for i, op := range ops {
				before := plans[op.name]
				if err := call(op.name, op.call); err != nil {
					return err
				}
				if want := i + 1; round == 0 && k.Len() != want {
					return fmt.Errorf("rank %d: %d Plans held after %s, want %d", me, k.Len(), op.name, want)
				}
				if round == 1 && (k.Len() != len(ops) || plans[op.name] != before) {
					return fmt.Errorf("rank %d: calling %s again bound a new Plan (%d held)", me, op.name, k.Len())
				}
			}
		}
		// Only the broadcast's Plan binds edges: no Fold receive, and no
		// schedule but a broadcast's, meets a bound edge.
		for _, q := range k.plans[:k.n] {
			if bound := q.ops.bound != nil; bound != (q.op == opBcast) {
				return fmt.Errorf("rank %d: the %s Plan binds edges: %v", me, q.op, bound)
			}
		}
		// Fill the cache, touch its oldest Plan, and overflow it: the
		// allgather's Plan, now the least recently used, goes.
		for _, step := range []struct {
			name string
			f    func() error
		}{{"bcast 2x", bcast(2 * p * chunk)}, {"bcast", ops[0].call}, {"scatter 2x", scatter(2 * chunk)}} {
			if err := call(step.name, step.f); err != nil {
				return err
			}
		}
		if k.Len() != callsCap {
			return fmt.Errorf("rank %d: %d Plans held, want a full cache of %d", me, k.Len(), callsCap)
		}
		for _, q := range k.plans {
			if q.op == opAllgather {
				return fmt.Errorf("rank %d: the least recently used Plan, the allgather's, was not evicted", me)
			}
		}
		for name, q := range plans {
			if name != "allgather" && !slices.Contains(k.plans[:], q) {
				return fmt.Errorf("rank %d: %s's Plan was evicted before the least recently used one", me, name)
			}
		}
		held := k.plans
		if err := k.Scatter(c, all, chunk, make([]byte, chunk), p); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("rank %d: a scatter from root %d: got %v, want mpi.ErrRank", me, p, err)
		}
		if k.plans != held || k.Len() != callsCap {
			return fmt.Errorf("rank %d: a scatter that failed its root check changed the cache", me)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// alternating is one rank's tuner: call after call it decides ds[0],
// ds[1], ds[0], ..., whatever the environment.
type alternating struct {
	ds [2]tune.Decision
	n  int
}

func (a *alternating) Decide(tune.Env) tune.Decision {
	d := a.ds[a.n%2]
	a.n++
	return d
}

// bindSpy is a communicator whose Bind wraps each Binding it returns in a
// spiedBinding, which notes its Release.
type bindSpy struct{ mpi.Comm }

type spiedBinding struct {
	mpi.Binding
	released bool
}

func (s bindSpy) Bind(edges []mpi.Edge) mpi.Binding {
	if b := s.Comm.Bind(edges); b != nil {
		return &spiedBinding{Binding: b}
	}
	return nil
}

func (b *spiedBinding) Engage(c mpi.Comm) bool { return b.Binding.Engage(c.(bindSpy).Comm) }

func (b *spiedBinding) Release() {
	b.released = true
	b.Binding.Release()
}

// TestCallsBindInAgreement holds per-call broadcasts that bind their
// edges to the order the ranks bind in. Each rank broadcasts more
// distinct shapes than a Calls holds, on the world and (two calls of
// three) on its Split child, under one alternating tuner of its own (a
// binomial tree, whose ranks get a tree's cells, and a ring, whose do
// not), so the keys miss, hit and are evicted; the ranks' logs of misses
// and evictions must be identical, every call byte-identical to its
// root, every held broadcast Plan bound, and every evicted one's Binding
// released. A broadcast through a nil Calls binds nothing: its messages
// pass the engine's queues.
func TestCallsBindInAgreement(t *testing.T) {
	const p = 8
	type shape struct{ n, root int }
	var shapes []shape
	for _, n := range []int{100, 700} {
		for _, root := range []int{0, 1, 3} {
			shapes = append(shapes, shape{n, root})
		}
	}
	// Three passes, each over the shapes with the first between them:
	// with two decisions, 12 keys for a cache of callsCap.
	var seq []shape
	for range 3 {
		for _, s := range shapes[1:] {
			seq = append(seq, s, shapes[0])
		}
	}
	if 2*len(shapes) <= callsCap {
		t.Fatalf("%d keys fit a cache of %d", 2*len(shapes), callsCap)
	}
	payload := pattern(1<<10 + len(seq))
	logs := make([][2][]string, p) // per world rank: the world's and the child's
	err := engine.RunWith(engine.Options{NP: p, Timeout: time.Minute}, func(c mpi.Comm) error {
		me := c.Rank()
		sub, err := c.Split(me%2, me)
		if err != nil {
			return err
		}
		o := Options{Tuner: &alternating{ds: [2]tune.Decision{{Algorithm: tune.Binomial}, {Algorithm: tune.RingOpt}}}}
		var calls [2]Calls
		defer calls[0].Release()
		defer calls[1].Release()
		for i, s := range seq {
			for j, comm := range []mpi.Comm{bindSpy{c}, bindSpy{sub}} {
				if j == 1 && i%3 == 0 {
					continue // so that neither communicator sees one decision only
				}
				k := &calls[j]
				before := k.plans
				var was [callsCap]mpi.Binding
				for x, q := range before[:k.n] {
					was[x] = q.ops.bound
				}
				buf := bytes.Repeat([]byte{byte(me)}, s.n)
				want := payload[i : i+s.n]
				if comm.Rank() == s.root {
					copy(buf, want)
				}
				if err := k.Broadcast(comm, buf, s.root, o); err != nil {
					return fmt.Errorf("round %d comm %d: %w", i, j, err)
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("rank %d round %d comm %d: buffer mismatch (first diff at %d)", me, i, j, firstDiff(buf, want))
				}
				name := func(q *Plan) string { return fmt.Sprintf("%d from %d by %s", q.n, q.root, q.dec.Algorithm) }
				if q := k.plans[0]; !slices.Contains(before[:], q) {
					logs[me][j] = append(logs[me][j], "miss "+name(q))
				}
				for x, q := range before {
					if q == nil || slices.Contains(k.plans[:], q) {
						continue
					}
					logs[me][j] = append(logs[me][j], "evict")
					if b, ok := was[x].(*spiedBinding); !ok || !b.released {
						return fmt.Errorf("rank %d round %d comm %d: an evicted Plan kept its edges", me, i, j)
					}
				}
				for _, q := range k.plans[:k.n] {
					if _, ok := q.ops.bound.(*spiedBinding); !ok {
						return fmt.Errorf("rank %d round %d comm %d: the Plan of %s binds no edge", me, i, j, name(q))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, comm := range []string{"world", "child"} {
		misses, evictions := 0, 0
		for _, e := range logs[0][j] {
			if e == "evict" {
				evictions++
			} else {
				misses++
			}
		}
		t.Logf("%s: %d misses, %d evictions", comm, misses, evictions)
		if misses <= callsCap || evictions == 0 {
			t.Errorf("%s: %d misses and %d evictions, want more than %d and some", comm, misses, evictions, callsCap)
		}
		for r := 1; r < p; r++ {
			if !slices.Equal(logs[r][j], logs[0][j]) {
				t.Errorf("%s: rank %d logged %q\nrank 0 logged %q", comm, r, logs[r][j], logs[0][j])
			}
		}
	}

	// The same tiny broadcast through a nil Calls: its messages queue.
	m := metrics.New(p, 0)
	err = engine.RunWith(engine.Options{NP: p, Timeout: time.Minute, Metrics: m}, func(c mpi.Comm) error {
		return uncached.Broadcast(bindSpy{c}, make([]byte, 100), 0, Options{Algorithm: tune.Binomial})
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := engine.CollectMetrics(m); s.ArrivalQueueMax+s.PostedQueueMax == 0 {
		t.Fatal("a broadcast through a nil Calls left the queues untouched: it rode bound edges")
	}
}
