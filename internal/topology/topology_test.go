package topology

import (
	"testing"
	"testing/quick"
)

func TestSingleNode(t *testing.T) {
	m := SingleNode(8)
	if m.NP() != 8 || m.NumNodes() != 1 {
		t.Fatalf("m = %v", m)
	}
	for r := 0; r < 8; r++ {
		if m.NodeOf(r) != 0 {
			t.Fatalf("rank %d on node %d", r, m.NodeOf(r))
		}
	}
	if !m.SameNode(0, 7) {
		t.Fatal("all ranks share the node")
	}
}

func TestBlockedPlacement(t *testing.T) {
	// The paper's Hornet default: np=64, 24 cores/node -> nodes 24/24/16.
	m := Blocked(64, HornetCoresPerNode)
	if m.NumNodes() != 3 {
		t.Fatalf("nodes = %d want 3", m.NumNodes())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(23) != 0 || m.NodeOf(24) != 1 || m.NodeOf(63) != 2 {
		t.Fatalf("blocked boundaries wrong: %v", m)
	}
	if len(m.RanksOnNode(2)) != 16 {
		t.Fatalf("last node has %d ranks want 16", len(m.RanksOnNode(2)))
	}
}

func TestBlockedNP256(t *testing.T) {
	// Figure 6(c): 256 ranks on ceil(256/24) = 11 nodes.
	m := Blocked(256, HornetCoresPerNode)
	if m.NumNodes() != 11 {
		t.Fatalf("nodes = %d want 11", m.NumNodes())
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	m := RoundRobin(6, 2) // 3 nodes, dealt cyclically
	if m.NumNodes() != 3 {
		t.Fatalf("nodes = %d", m.NumNodes())
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for r, n := range want {
		if m.NodeOf(r) != n {
			t.Fatalf("rank %d on node %d want %d", r, m.NodeOf(r), n)
		}
	}
}

func TestLeaders(t *testing.T) {
	m := Blocked(9, 3)
	if got := m.Leaders(); got[0] != 0 || got[1] != 3 || got[2] != 6 {
		t.Fatalf("leaders = %v", got)
	}
	if m.Leader(m.NodeOf(3)) != 3 || m.Leader(m.NodeOf(4)) == 4 {
		t.Fatal("leader detection wrong")
	}
}

func TestCustomValidation(t *testing.T) {
	if _, err := Custom(nil); err == nil {
		t.Fatal("empty placement must fail")
	}
	if _, err := Custom([]int{0, -1}); err == nil {
		t.Fatal("negative node must fail")
	}
	if _, err := Custom([]int{0, 2}); err == nil {
		t.Fatal("sparse node ids must fail")
	}
	m, err := Custom([]int{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 2 || m.NodeOf(0) != 1 {
		t.Fatalf("custom map wrong: %v", m)
	}
}

func TestSubset(t *testing.T) {
	m := Blocked(8, 2)                   // nodes 0..3
	sub, err := m.Subset([]int{6, 1, 7}) // nodes 3,0,3 -> densified 1,0,1
	if err != nil {
		t.Fatal(err)
	}
	if sub.NP() != 3 || sub.NumNodes() != 2 {
		t.Fatalf("subset = %v", sub)
	}
	if sub.NodeOf(0) != 1 || sub.NodeOf(1) != 0 || sub.NodeOf(2) != 1 {
		t.Fatalf("subset nodes: %v", sub)
	}
	if _, err := m.Subset([]int{99}); err == nil {
		t.Fatal("out-of-range member must fail")
	}
	if _, err := m.Subset(nil); err == nil {
		t.Fatal("empty subset must fail")
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){ //nolint
		func() { Blocked(0, 4) },
		func() { Blocked(4, 0) },
		func() { RoundRobin(-1, 4) },
		func() { RoundRobin(4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestQuickBlockedProperties: every node except possibly the last is full,
// node ids are dense and ordered.
func TestQuickBlockedProperties(t *testing.T) {
	f := func(npRaw, coresRaw uint8) bool {
		np := int(npRaw)%300 + 1
		cores := int(coresRaw)%32 + 1
		m := Blocked(np, cores)
		wantNodes := (np + cores - 1) / cores
		if m.NumNodes() != wantNodes {
			return false
		}
		total := 0
		for node := 0; node < m.NumNodes(); node++ {
			rs := m.RanksOnNode(node)
			total += len(rs)
			if node < m.NumNodes()-1 && len(rs) != cores {
				return false
			}
			for _, r := range rs {
				if m.NodeOf(r) != node {
					return false
				}
			}
		}
		return total == np
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSameNode(t *testing.T) {
	m := Blocked(4, 2)
	if !m.SameNode(0, 1) || m.SameNode(1, 2) {
		t.Fatal("classification wrong")
	}
}

func TestString(t *testing.T) {
	got := Blocked(5, 2).String()
	want := "topology{np=5 nodes=3 [2 2 1]}"
	if got != want {
		t.Fatalf("String() = %q want %q", got, want)
	}
}
