package stats

import (
	mathrand "math/rand"
	"testing"
)

func TestSeedSequenceDeterministic(t *testing.T) {
	a := NewSeedSequence(7)
	b := NewSeedSequence(7)
	for i := 0; i < 10; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("sequence diverged at %d: %d vs %d", i, x, y)
		}
	}
}

func TestSeedSequenceDistinctSeedsDiffer(t *testing.T) {
	a := NewSeedSequence(1)
	b := NewSeedSequence(2)
	same := 0
	for i := 0; i < 10; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/10 derived seeds collided across different roots", same)
	}
}

func TestSeedSequenceChildrenDiffer(t *testing.T) {
	s := NewSeedSequence(99)
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		v := s.Next()
		if seen[v] {
			t.Fatalf("duplicate child seed %d", v)
		}
		seen[v] = true
	}
}

func TestNextRandUsable(t *testing.T) {
	r := NewSeedSequence(5).NextRand()
	if r == nil {
		t.Fatal("NextRand returned nil")
	}
	_ = r.Intn(10) // must not panic
}

func TestDeriveTagSensitivity(t *testing.T) {
	if Derive(1, "walk") == Derive(1, "labels") {
		t.Error("different tags produced the same derived seed")
	}
	if Derive(1, "walk") != Derive(1, "walk") {
		t.Error("same (seed, tag) produced different seeds")
	}
	if Derive(1, "walk") == Derive(2, "walk") {
		t.Error("different roots produced the same derived seed")
	}
}

func TestDeriveEmptyTag(t *testing.T) {
	// An empty tag is still a valid, deterministic derivation.
	if Derive(3, "") != Derive(3, "") {
		t.Error("empty-tag derivation not deterministic")
	}
}

// newTestRand returns a deterministic generator for the stats tests.
func newTestRand(seed int64) *mathrand.Rand {
	return mathrand.New(mathrand.NewSource(seed))
}
