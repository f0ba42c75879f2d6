package walk

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
)

// starPlusTriangle builds a small irregular graph: star center 0 with leaves
// 1..3, plus triangle 0-4-5. Degrees: d(0)=5, d(4)=d(5)=2, d(1..3)=1.
func starPlusTriangle(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.Node{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// empiricalDistribution runs the walker for steps transitions and returns
// visit frequencies per node.
func empiricalDistribution(t *testing.T, w Walker[graph.Node], n, steps int) []float64 {
	t.Helper()
	counts := make([]float64, n)
	for i := 0; i < steps; i++ {
		u, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		counts[u]++
	}
	for i := range counts {
		counts[i] /= float64(steps)
	}
	return counts
}

// assertDistribution checks empirical frequencies against a target
// distribution within tolerance.
func assertDistribution(t *testing.T, got, want []float64, tol float64, name string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s: node %d frequency %.4f, want %.4f (±%.3f)", name, i, got[i], want[i], tol)
		}
	}
}

func TestSimpleWalkStationaryIsDegreeProportional(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	w := NewSimple[graph.Node](sp, 0, rand.New(rand.NewSource(1)))
	got := empiricalDistribution(t, w, 6, 400000)
	twoE := 2.0 * float64(g.NumEdges())
	want := make([]float64, 6)
	for u := 0; u < 6; u++ {
		want[u] = float64(g.Degree(graph.Node(u))) / twoE
	}
	assertDistribution(t, got, want, 0.01, "simple walk")
}

func TestNonBacktrackingStationaryIsDegreeProportional(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	w := NewNonBacktracking[graph.Node](sp, 0, rand.New(rand.NewSource(2)))
	got := empiricalDistribution(t, w, 6, 400000)
	twoE := 2.0 * float64(g.NumEdges())
	want := make([]float64, 6)
	for u := 0; u < 6; u++ {
		want[u] = float64(g.Degree(graph.Node(u))) / twoE
	}
	assertDistribution(t, got, want, 0.01, "non-backtracking walk")
}

func TestMetropolisHastingsStationaryIsUniform(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	w := NewMetropolisHastings[graph.Node](sp, 0, rand.New(rand.NewSource(3)))
	got := empiricalDistribution(t, w, 6, 400000)
	want := []float64{1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6}
	assertDistribution(t, got, want, 0.01, "MH walk")
}

func TestMaxDegreeStationaryIsUniform(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	w, err := NewMaxDegree[graph.Node](sp, 0, 5, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	got := empiricalDistribution(t, w, 6, 400000)
	want := []float64{1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6}
	assertDistribution(t, got, want, 0.01, "MD walk")
}

func TestRCMHStationaryInterpolates(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	alpha := 0.5
	w, err := NewRejectionControlledMH[graph.Node](sp, 0, alpha, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	got := empiricalDistribution(t, w, 6, 400000)
	// π(u) ∝ d(u)^(1-alpha).
	var z float64
	want := make([]float64, 6)
	for u := 0; u < 6; u++ {
		want[u] = math.Pow(float64(g.Degree(graph.Node(u))), 1-alpha)
		z += want[u]
	}
	for u := range want {
		want[u] /= z
	}
	assertDistribution(t, got, want, 0.01, "RCMH walk")
}

func TestGMDStationaryIsMaxCD(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	const maxDeg = 5
	const delta = 0.6 // C = 3
	w, err := NewGeneralMaxDegree[graph.Node](sp, 0, maxDeg, delta, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	got := empiricalDistribution(t, w, 6, 400000)
	c := delta * maxDeg
	var z float64
	want := make([]float64, 6)
	for u := 0; u < 6; u++ {
		want[u] = math.Max(c, float64(g.Degree(graph.Node(u))))
		z += want[u]
	}
	for u := range want {
		want[u] /= z
	}
	assertDistribution(t, got, want, 0.01, "GMD walk")
}

func TestStationaryWeightsMatchClaims(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	rng := rand.New(rand.NewSource(7))

	simple := NewSimple[graph.Node](sp, 0, rng)
	if w, _ := simple.StationaryWeight(0); w != 5 {
		t.Errorf("simple weight(0) = %g, want 5", w)
	}
	mh := NewMetropolisHastings[graph.Node](sp, 0, rng)
	if w, _ := mh.StationaryWeight(0); w != 1 {
		t.Errorf("MH weight = %g, want 1", w)
	}
	md, err := NewMaxDegree[graph.Node](sp, 0, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := md.StationaryWeight(3); w != 1 {
		t.Errorf("MD weight = %g, want 1", w)
	}
	rcmh, err := NewRejectionControlledMH[graph.Node](sp, 0, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := rcmh.StationaryWeight(0); math.Abs(w-math.Sqrt(5)) > 1e-12 {
		t.Errorf("RCMH weight(0) = %g, want sqrt(5)", w)
	}
	gmd, err := NewGeneralMaxDegree[graph.Node](sp, 0, 5, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := gmd.StationaryWeight(1); w != 3 { // max(3, 1)
		t.Errorf("GMD weight(1) = %g, want 3", w)
	}
	if w, _ := gmd.StationaryWeight(0); w != 5 { // max(3, 5)
		t.Errorf("GMD weight(0) = %g, want 5", w)
	}
}

func TestWalkerConstructorValidation(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	rng := rand.New(rand.NewSource(8))
	if _, err := NewMaxDegree[graph.Node](sp, 0, 0, rng); err == nil {
		t.Error("MD: want error for maxDegree=0")
	}
	if _, err := NewRejectionControlledMH[graph.Node](sp, 0, -0.1, rng); err == nil {
		t.Error("RCMH: want error for alpha<0")
	}
	if _, err := NewRejectionControlledMH[graph.Node](sp, 0, 1.1, rng); err == nil {
		t.Error("RCMH: want error for alpha>1")
	}
	if _, err := NewGeneralMaxDegree[graph.Node](sp, 0, 5, 0, rng); err == nil {
		t.Error("GMD: want error for delta=0")
	}
	if _, err := NewGeneralMaxDegree[graph.Node](sp, 0, 5, 1.5, rng); err == nil {
		t.Error("GMD: want error for delta>1")
	}
}

func TestRCMHBoundaryBehaviors(t *testing.T) {
	// alpha=0 must behave as the simple walk (always accept); alpha=1 as MH.
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	w0, err := NewRejectionControlledMH[graph.Node](sp, 0, 0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	got := empiricalDistribution(t, w0, 6, 200000)
	twoE := 2.0 * float64(g.NumEdges())
	want := make([]float64, 6)
	for u := 0; u < 6; u++ {
		want[u] = float64(g.Degree(graph.Node(u))) / twoE
	}
	assertDistribution(t, got, want, 0.015, "RCMH alpha=0")
}

func TestBurninAdvances(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	w := NewSimple[graph.Node](sp, 1, rand.New(rand.NewSource(10)))
	if err := BurninCtx[graph.Node](context.Background(), w, 50); err != nil {
		t.Fatal(err)
	}
	// Node 1 is a leaf: after ≥1 step from it, the walk cannot still be at
	// it immediately after an odd number of steps from a leaf only if moved;
	// simply assert Current() is a valid node.
	if c := w.Current(); c < 0 || int(c) >= 6 {
		t.Errorf("Current = %d out of range", c)
	}
}

func TestStepOnIsolatedNodeFails(t *testing.T) {
	b := graph.NewBuilder(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Build a 3-node graph with isolated node 2 via a bigger builder.
	b2 := graph.NewBuilder(3)
	if err := b2.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	sp := GraphSpace{G: g2}
	w := NewSimple[graph.Node](sp, 2, rand.New(rand.NewSource(11)))
	if _, err := w.Step(); err == nil {
		t.Error("stepping from isolated node should fail")
	}
}

func TestNonBacktrackingNeverBacktracksOnDegreeTwoPlus(t *testing.T) {
	// Cycle graph: from any node both neighbors have degree 2; a
	// non-backtracking walk must never return to the previous node.
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(graph.Node(i), graph.Node((i+1)%5)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp := GraphSpace{G: g}
	w := NewNonBacktracking[graph.Node](sp, 0, rand.New(rand.NewSource(12)))
	prev := w.Current()
	cur, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		next, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if next == prev {
			t.Fatalf("backtracked to %d at step %d", prev, i)
		}
		prev, cur = cur, next
	}
}

func TestNodeSpaceChargesSession(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := gen.BarabasiAlbert(200, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := NodeSpace{S: s}
	w := NewSimple[graph.Node](sp, 0, rng)
	for i := 0; i < 50; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Calls() == 0 {
		t.Error("walk over NodeSpace charged no API calls")
	}
	if s.Calls() > 51 {
		t.Errorf("walk charged %d calls for 50 steps; crawl cache not effective", s.Calls())
	}
}

func TestGraphSpaceNeighborBounds(t *testing.T) {
	g := starPlusTriangle(t)
	sp := GraphSpace{G: g}
	if _, err := sp.Neighbor(0, 99); err == nil {
		t.Error("want error for out-of-range neighbor index")
	}
	if _, err := sp.Neighbor(0, -1); err == nil {
		t.Error("want error for negative neighbor index")
	}
}
