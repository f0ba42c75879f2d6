package gen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func uniformDegrees(n, d int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestCommunityGenderGraphValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	deg := uniformDegrees(10, 2)
	if _, _, err := CommunityGenderGraph(nil, []int{1}, 0.1, []float64{0.3}, rng); err == nil {
		t.Error("want error for no nodes")
	}
	if _, _, err := CommunityGenderGraph(deg, []int{5}, 0.1, []float64{0.3}, rng); err == nil {
		t.Error("want error for sizes not summing to n")
	}
	if _, _, err := CommunityGenderGraph(deg, []int{5, 5}, 0.1, []float64{0.3}, rng); err == nil {
		t.Error("want error for sizes/probs length mismatch")
	}
	if _, _, err := CommunityGenderGraph(deg, []int{10}, 1.5, []float64{0.3}, rng); err == nil {
		t.Error("want error for pGlobal > 1")
	}
	if _, _, err := CommunityGenderGraph(deg, []int{10}, 0.1, []float64{1.3}, rng); err == nil {
		t.Error("want error for probability > 1")
	}
	if _, _, err := CommunityGenderGraph(deg, []int{0, 10}, 0.1, []float64{0.3, 0.3}, rng); err == nil {
		t.Error("want error for zero-size community")
	}
}

func TestCommunityGenderGraphLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 2000
	sizes := []int{1000, 1000}
	g, community, err := CommunityGenderGraph(uniformDegrees(n, 8), sizes, 0.1,
		[]float64{0.5, 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(community) != n {
		t.Fatalf("community length %d", len(community))
	}
	var within, cross int
	g.Edges(func(u, v graph.Node) bool {
		if community[u] == community[v] {
			within++
		} else {
			cross++
		}
		return true
	})
	// pGlobal 0.1: roughly 10% of stubs global, half of those cross.
	frac := float64(cross) / float64(within+cross)
	if frac < 0.02 || frac > 0.15 {
		t.Errorf("cross-community edge fraction %.3f, want ~0.05-0.10", frac)
	}
}

func TestCommunityGenderGraphGenderComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{800, 800}
	g, community, err := CommunityGenderGraph(uniformDegrees(1600, 6), sizes, 0.1,
		[]float64{0.1, 0.9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var fem [2]int
	var tot [2]int
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		c := community[u]
		tot[c]++
		if g.HasLabel(u, 1) {
			fem[c]++
		}
	}
	f0 := float64(fem[0]) / float64(tot[0])
	f1 := float64(fem[1]) / float64(tot[1])
	if math.Abs(f0-0.1) > 0.05 || math.Abs(f1-0.9) > 0.05 {
		t.Errorf("community female fractions %.2f/%.2f, want 0.10/0.90", f0, f1)
	}
}

func TestCommunityGraphUnlabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g, community, err := CommunityGraph(uniformDegrees(400, 4), []int{200, 200}, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(community) != 400 {
		t.Fatalf("community length %d", len(community))
	}
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		if len(g.Labels(u)) != 0 {
			t.Fatalf("node %d carries labels %v; CommunityGraph must be unlabeled", u, g.Labels(u))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBimodalProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	probs := BimodalProbs(1000, 0.1, 0.7, 0.3, rng)
	if len(probs) != 1000 {
		t.Fatalf("len = %d", len(probs))
	}
	low := 0
	for _, p := range probs {
		switch p {
		case 0.1:
			low++
		case 0.7:
		default:
			t.Fatalf("unexpected probability %g", p)
		}
	}
	frac := float64(low) / 1000
	if math.Abs(frac-0.3) > 0.05 {
		t.Errorf("low fraction %.3f, want ~0.30", frac)
	}
}
