package osn

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.Node(i), graph.Node(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetLabels(0, 7); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSessionPriorKnowledge(t *testing.T) {
	g := pathGraph(t, 5)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 5 || s.NumEdges() != 4 {
		t.Errorf("prior knowledge wrong: |V|=%d |E|=%d", s.NumNodes(), s.NumEdges())
	}
	if s.Calls() != 0 {
		t.Error("prior knowledge must not charge API calls")
	}
}

func TestSessionChargesUniqueCalls(t *testing.T) {
	g := pathGraph(t, 5)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Neighbors(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Neighbors(1); err != nil { // cached
		t.Fatal(err)
	}
	if _, err := s.Degree(1); err != nil { // cached too
		t.Fatal(err)
	}
	if _, err := s.Neighbors(2); err != nil {
		t.Fatal(err)
	}
	if s.Calls() != 2 {
		t.Errorf("Calls = %d, want 2 (duplicates free)", s.Calls())
	}
}

func TestSessionNodeRangeChecks(t *testing.T) {
	g := pathGraph(t, 3)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Neighbors(-1); err == nil {
		t.Error("want error for negative node")
	}
	if _, err := s.Neighbors(3); err == nil {
		t.Error("want error for out-of-range node")
	}
	if _, err := s.Degree(99); err == nil {
		t.Error("want error for out-of-range degree query")
	}
}

func TestSessionLabelsFree(t *testing.T) {
	g := pathGraph(t, 5)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasLabel(0, 7) {
		t.Error("HasLabel(0,7) = false")
	}
	if ls := s.Labels(0); len(ls) != 1 || ls[0] != 7 {
		t.Errorf("Labels(0) = %v", ls)
	}
	if s.Calls() != 0 {
		t.Errorf("label lookups charged %d calls, want 0", s.Calls())
	}
}

func TestSessionResetAccounting(t *testing.T) {
	g := pathGraph(t, 5)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	s.ResetAccounting()
	if s.Calls() != 0 {
		t.Error("accounting not reset")
	}
	// After reset, a previously cached node is charged again.
	if _, err := s.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	if s.Calls() != 1 {
		t.Errorf("Calls after reset = %d, want 1", s.Calls())
	}
}

func TestSessionNeighborsContent(t *testing.T) {
	g := pathGraph(t, 4)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.Neighbors(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 2 {
		t.Errorf("Neighbors(1) = %v, want [0 2]", ns)
	}
	d, err := s.Degree(2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("Degree(2) = %d, want 2", d)
	}
}

func TestRandomNodeInRange(t *testing.T) {
	g := pathGraph(t, 7)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		u := s.RandomNode(rng)
		if u < 0 || int(u) >= 7 {
			t.Fatalf("RandomNode = %d out of range", u)
		}
	}
	if s.Calls() != 0 {
		t.Error("RandomNode must not charge API calls")
	}
}

func TestChargeFlat(t *testing.T) {
	g := pathGraph(t, 5)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ChargeFlat(3); err != nil {
		t.Fatal(err)
	}
	if s.Calls() != 3 {
		t.Errorf("Calls = %d, want 3", s.Calls())
	}
	if err := s.ChargeFlat(0); err != nil {
		t.Errorf("zero flat charge errored: %v", err)
	}
	if err := s.ChargeFlat(-5); err != nil {
		t.Errorf("negative flat charge errored: %v", err)
	}
	if s.Calls() != 3 {
		t.Errorf("Calls changed on no-op charges: %d", s.Calls())
	}
}
