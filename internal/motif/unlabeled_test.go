package motif

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

func TestWedgesUnbiased(t *testing.T) {
	g := denseLabeledGraph(t, 11)
	truth := float64(exact.CountWedges(g))
	const reps = 100
	ests := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := countMotif(s, ShapeWedges, 300, core.Options{BurnIn: 150, Rng: rand.New(rand.NewSource(int64(i))), Start: -1})
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.Estimate)
	}
	if bias := stats.RelativeBias(ests, truth); math.Abs(bias) > 0.05 {
		t.Errorf("wedge bias %.3f (truth %.0f, mean %.0f)", bias, truth, stats.Mean(ests))
	}
}

func TestTrianglesUnbiased(t *testing.T) {
	g := denseLabeledGraph(t, 12)
	truth := float64(exact.CountTriangles(g))
	if truth == 0 {
		t.Fatal("test graph has no triangles")
	}
	const reps = 100
	ests := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := countMotif(s, ShapeTriangles, 300, core.Options{BurnIn: 150, Rng: rand.New(rand.NewSource(int64(i))), Start: -1})
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.Estimate)
	}
	if bias := stats.RelativeBias(ests, truth); math.Abs(bias) > 0.08 {
		t.Errorf("triangle bias %.3f (truth %.0f, mean %.0f)", bias, truth, stats.Mean(ests))
	}
}

func TestUnlabeledValidation(t *testing.T) {
	g := denseLabeledGraph(t, 14)
	s := newSession(t, g)
	rng := rand.New(rand.NewSource(1))
	if _, err := countMotif(s, ShapeWedges, 0, core.Options{BurnIn: 10, Rng: rng, Start: -1}); err == nil {
		t.Error("Wedges: want error for k=0")
	}
	if _, err := countMotif(s, ShapeTriangles, 0, core.Options{BurnIn: 10, Rng: rng, Start: -1}); err == nil {
		t.Error("Triangles: want error for k=0")
	}
	if _, err := countMotif(s, ShapeWedges, 10, core.Options{BurnIn: 10, Start: -1}); err == nil {
		t.Error("Wedges: want error for nil Rng")
	}
}

func TestTrianglesZeroOnTriangleFreeGraph(t *testing.T) {
	// A cycle of length 5 has no triangles.
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
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := countMotif(s, ShapeTriangles, 100, core.Options{BurnIn: 20, Rng: rand.New(rand.NewSource(2)), Start: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Errorf("triangle estimate %g on triangle-free graph, want 0", res.Estimate)
	}
}
