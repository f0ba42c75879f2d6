package osn

import (
	"testing"
	"time"
)

func TestGraphSourcePassThrough(t *testing.T) {
	g := pathGraph(t, 5)
	src := NewGraphSource(g)
	if src.NumNodes() != 5 || src.NumEdges() != 4 {
		t.Errorf("sizes: |V|=%d |E|=%d", src.NumNodes(), src.NumEdges())
	}
	adj, err := src.Neighbors(1)
	if err != nil || len(adj) != 2 {
		t.Errorf("Neighbors(1) = %v, %v", adj, err)
	}
	d, err := src.Degree(1)
	if err != nil || d != 2 {
		t.Errorf("Degree(1) = %d, %v", d, err)
	}
	if !src.HasLabel(0, 7) {
		t.Error("HasLabel(0,7) = false")
	}
}

func TestSessionFromDecoratedSource(t *testing.T) {
	g := pathGraph(t, 6)
	src := WithLatency(NewGraphSource(g), 0, 0, 1) // zero-delay decorator: pure pass-through
	s, err := NewSessionFrom(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	adj, err := s.Neighbors(2)
	if err != nil || len(adj) != 2 {
		t.Fatalf("Neighbors(2) = %v, %v", adj, err)
	}
	// A decorated (non-graph) source uses the sharded response cache:
	// repeats must be free and identical.
	again, err := s.Neighbors(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Calls() != 1 {
		t.Errorf("Calls = %d, want 1 (repeat served from sharded cache)", s.Calls())
	}
	if len(again) != len(adj) || again[0] != adj[0] {
		t.Errorf("cached response differs: %v vs %v", again, adj)
	}
	// ResetAccounting clears the sharded cache too.
	s.ResetAccounting()
	if _, err := s.Neighbors(2); err != nil {
		t.Fatal(err)
	}
	if s.Calls() != 1 {
		t.Errorf("Calls after reset = %d, want 1 (cache was cleared)", s.Calls())
	}
}

func TestLatencyDecoratorDelays(t *testing.T) {
	g := pathGraph(t, 4)
	const delay = 2 * time.Millisecond
	src := WithLatency(NewGraphSource(g), delay, delay, 9)
	start := time.Now()
	const fetches = 5
	for i := 0; i < fetches; i++ {
		if _, err := src.Neighbors(1); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < fetches*delay {
		t.Errorf("%d fetches took %v, want >= %v", fetches, elapsed, fetches*delay)
	}
	// Labels ride along with responses: not delayed, no error path.
	if ls := src.Labels(0); len(ls) != 1 {
		t.Errorf("Labels(0) = %v", ls)
	}
}
