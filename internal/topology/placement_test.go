package topology

import "testing"

func TestKindClassification(t *testing.T) {
	irregular, err := Custom([]int{0, 1, 1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *Map
		want string
	}{
		{"single", SingleNode(16), KindSingle},
		{"blocked", Blocked(64, 24), KindBlocked},
		{"blocked-even", Blocked(48, 24), KindBlocked},
		{"round-robin", RoundRobin(64, 24), KindRoundRobin},
		{"round-robin-uneven", RoundRobin(10, 4), KindRoundRobin},
		{"blocked-collapses-to-single", Blocked(16, 24), KindSingle},
		{"rr-collapses-to-single", RoundRobin(8, 8), KindSingle},
		{"irregular", irregular, KindIrregular},
	}
	for _, tc := range cases {
		if got := tc.m.Kind(); got != tc.want {
			t.Errorf("%s: Kind() = %q want %q (%s)", tc.name, got, tc.want, tc.m)
		}
	}
	// One rank per node matches both patterns; the classification must be
	// deterministic and identical for both constructions.
	if Blocked(4, 1).Kind() != RoundRobin(4, 1).Kind() {
		t.Error("identical maps must classify identically")
	}
}

func TestMaxCoresPerNode(t *testing.T) {
	cases := []struct {
		m    *Map
		want int
	}{
		{SingleNode(7), 7},
		{Blocked(64, 24), 24},
		{Blocked(16, 24), 16},
		{RoundRobin(64, 24), 22}, // 64 ranks dealt over 3 nodes: 22/21/21
		{RoundRobin(10, 5), 5},
	}
	for _, tc := range cases {
		if got := tc.m.MaxCoresPerNode(); got != tc.want {
			t.Errorf("%s: MaxCoresPerNode() = %d want %d", tc.m, got, tc.want)
		}
	}
}

// TestSummariesComputedOnce: the occupancy and kind a Map stores at
// build equal what its placement says, recomputed from nodeOf alone, for
// every way a Map is made — including a Subset, which builds anew.
func TestSummariesComputedOnce(t *testing.T) {
	irregular, err := Custom([]int{0, 1, 1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	custom, err := Custom([]int{1, 0, 1, 2, 2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	maps := []*Map{SingleNode(1), SingleNode(9), Blocked(64, 24), Blocked(16, 24), Blocked(4, 1),
		RoundRobin(64, 24), RoundRobin(10, 4), irregular, custom}
	for _, members := range [][]int{{6, 1, 7}, {0, 2, 4, 6}, {5}, {7, 6, 5, 4, 3, 2, 1, 0}} {
		sub, err := Blocked(8, 2).Subset(members)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, sub)
	}
	for _, m := range maps {
		count := make([]int, m.NumNodes())
		cores := 0
		for _, node := range m.nodeOf {
			count[node]++
			cores = max(cores, count[node])
		}
		blocked, rr := true, true
		for r, node := range m.nodeOf {
			blocked = blocked && node == r/cores
			rr = rr && node == r%m.NumNodes()
		}
		kind := KindIrregular
		switch {
		case m.NumNodes() == 1:
			kind = KindSingle
		case blocked:
			kind = KindBlocked
		case rr:
			kind = KindRoundRobin
		}
		if m.MaxCoresPerNode() != cores || m.Kind() != kind {
			t.Errorf("%s: stored (%d, %q), placement says (%d, %q)", m, m.MaxCoresPerNode(), m.Kind(), cores, kind)
		}
	}
}
