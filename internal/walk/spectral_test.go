package walk

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestSpectralGapValidation(t *testing.T) {
	g := completeGraph(t, 5)
	if _, err := SpectralGap(g, 0, 100); err == nil {
		t.Error("want error for eps=0")
	}
	if _, err := SpectralGap(&graph.Graph{}, 0.1, 100); err == nil {
		t.Error("want error for empty graph")
	}
}

func TestSpectralGapCompleteGraph(t *testing.T) {
	// K_n: plain-walk spectrum is {1, -1/(n-1), ...}; lazy-walk second
	// eigenvalue is (1 - 1/(n-1))/2 + 1/2... computed directly:
	// lazy λ = (1 + λ_plain)/2 = (1 - 1/(n-1))/2 + 1/2 = 1/2 + (n-2)/(2(n-1)).
	const n = 10
	g := completeGraph(t, n)
	res, err := SpectralGap(g, 1e-3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// Plain K_n eigenvalues: 1 and -1/(n-1) (multiplicity n-1).
	// Lazy: (1 + λ)/2 → second-largest = (1 - 1/(n-1))/2.
	wantLambda := (1 - 1/(float64(n)-1)) / 2
	if math.Abs(res.Lambda2-wantLambda) > 0.01 {
		t.Errorf("lambda2 = %.4f, want %.4f", res.Lambda2, wantLambda)
	}
	if !res.Converged {
		t.Error("power iteration did not converge on K10")
	}
}

func TestSpectralGapPathSmall(t *testing.T) {
	// A long path has a tiny spectral gap; a complete graph a large one.
	b := graph.NewBuilder(40)
	for i := 0; i < 39; i++ {
		if err := b.AddEdge(graph.Node(i), graph.Node(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	path, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pathRes, err := SpectralGap(path, 1e-3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	kRes, err := SpectralGap(completeGraph(t, 40), 1e-3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if pathRes.Gap >= kRes.Gap {
		t.Errorf("path gap %.4f not below complete-graph gap %.4f", pathRes.Gap, kRes.Gap)
	}
	if pathRes.MixingUpper <= kRes.MixingUpper {
		t.Errorf("path mixing bound %.0f not above complete-graph bound %.0f",
			pathRes.MixingUpper, kRes.MixingUpper)
	}
}

func TestSpectralBoundDominatesMeasuredMixing(t *testing.T) {
	// The spectral upper bound must not be smaller than the measured lazy
	// mixing... we measure the PLAIN walk, which can only be faster than
	// the bound for the lazy walk on these expanders; check the ordering
	// loosely: measured <= bound.
	rng := rand.New(rand.NewSource(51))
	g, err := gen.BarabasiAlbert(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpectralGap(g, 1e-3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := MixingTime(context.Background(), g, 1e-3, MixingOptions{MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !measured.Converged {
		t.Fatal("walk did not mix")
	}
	if float64(measured.Steps) > spec.MixingUpper {
		t.Errorf("measured mixing %d exceeds spectral upper bound %.0f",
			measured.Steps, spec.MixingUpper)
	}
}
