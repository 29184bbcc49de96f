package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

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
