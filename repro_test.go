package repro

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestStandInNames(t *testing.T) {
	names := StandInNames()
	if len(names) != 5 {
		t.Fatalf("got %d names", len(names))
	}
	want := map[string]bool{"facebook": true, "googleplus": true, "pokec": true, "orkut": true, "livejournal": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected stand-in %q", n)
		}
	}
}

func TestGenerateStandIn(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty stand-in")
	}
	if _, err := GenerateStandIn("bogus", 1, 1); err == nil {
		t.Error("want error for unknown stand-in")
	}
}

func TestEstimateTargetEdgesAllMethods(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	pair := LabelPair{T1: 1, T2: 2}
	truth := float64(CountTargetEdgesExact(g, pair))
	if truth == 0 {
		t.Fatal("no target edges")
	}
	for _, m := range Methods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			res, err := EstimateTargetEdges(g, pair, EstimateOptions{
				Method: m,
				Budget: 0.2,
				BurnIn: 200,
				Seed:   9,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Method == Auto {
				t.Error("Auto not resolved to a concrete method")
			}
			if res.Samples <= 0 || res.BurnIn != 200 {
				t.Errorf("metadata wrong: %+v", res)
			}
			// Loose one-shot band; MD-family baselines can be far off.
			lo, hi := truth/5, truth*5
			if m == BaselineMethodMDRW || m == BaselineMethodGMD {
				lo, hi = 0, truth*30
			}
			if res.Estimate < lo || res.Estimate > hi {
				t.Errorf("%s estimate %.0f outside [%.0f, %.0f], truth %.0f", m, res.Estimate, lo, hi, truth)
			}
		})
	}
}

func TestEstimateTargetEdgesAutoSelection(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.15, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Abundant pair (about 42% of edges): Auto must pick NeighborSample.
	res, err := EstimateTargetEdges(g, LabelPair{T1: 1, T2: 2}, EstimateOptions{
		Budget: 0.1, BurnIn: 150, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != NeighborSampleHT {
		t.Errorf("Auto picked %s for an abundant pair, want NeighborSample-HT", res.Method)
	}
}

func TestEstimateTargetEdgesAutoRare(t *testing.T) {
	g, err := GenerateStandIn("pokec", 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A same-label pair in a mid-sized community: rare relative to |E|.
	res, err := EstimateTargetEdges(g, LabelPair{T1: 30, T2: 31}, EstimateOptions{
		Budget: 0.05, BurnIn: 150, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != NeighborExplorationHH {
		t.Errorf("Auto picked %s for a rare pair, want NeighborExploration-HH", res.Method)
	}
}

func TestEstimateTargetEdgesValidation(t *testing.T) {
	empty := NewBuilder(3)
	g, err := empty.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateTargetEdges(g, LabelPair{T1: 1, T2: 2}, EstimateOptions{}); err == nil {
		t.Error("want error for edgeless graph")
	}
	fb, err := GenerateStandIn("facebook", 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateTargetEdges(fb, LabelPair{T1: 1, T2: 2}, EstimateOptions{Method: "nope", BurnIn: 10}); err == nil {
		t.Error("want error for unknown method")
	}
}

func TestEstimateSamplesOverridesBudget(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateTargetEdges(g, LabelPair{T1: 1, T2: 2}, EstimateOptions{
		Method: NeighborSampleHH, Samples: 123, BurnIn: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 123 {
		t.Errorf("Samples = %d, want 123", res.Samples)
	}
}

func TestTheoreticalBounds(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TheoreticalBounds(g, LabelPair{T1: 1, T2: 2}, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if b.NeighborSampleHH < 1 || math.IsNaN(b.NeighborExplorationRW) {
		t.Errorf("bad bounds: %+v", b)
	}
	if _, err := TheoreticalBounds(g, LabelPair{T1: 90, T2: 91}, 0.1, 0.1); err == nil {
		t.Error("want error for F=0")
	}
}

func TestMixingTimeFacade(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := MixingTime(g, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if steps <= 0 {
		t.Errorf("mixing time = %d", steps)
	}
}

func TestLoadGraphRoundTrip(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "edges.txt")
	labels := filepath.Join(dir, "labels.txt")
	if err := os.WriteFile(edges, []byte("0 1\n1 2\n2 0\n5 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(labels, []byte("0 1\n1 2\n2 1\n5 1\n6 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(edges, labels)
	if err != nil {
		t.Fatal(err)
	}
	// LCC = the triangle.
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Errorf("LCC = %d/%d, want 3/3", g.NumNodes(), g.NumEdges())
	}
	if got := CountTargetEdgesExact(g, LabelPair{T1: 1, T2: 2}); got != 2 {
		t.Errorf("F = %d, want 2", got)
	}
	// Unlabeled load.
	g2, err := LoadGraph(edges, "")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 3 {
		t.Errorf("unlabeled LCC = %d nodes", g2.NumNodes())
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.txt"), ""); err == nil {
		t.Error("want error for missing file")
	}
}

func TestDeriveFacade(t *testing.T) {
	if Derive(1, "a") == Derive(1, "b") {
		t.Error("tag-insensitive derivation")
	}
}

func TestDiscoverLabelPairs(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := DiscoverLabelPairs(g, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs discovered")
	}
	// The gender graph's three pairs should all surface at a 20% budget,
	// sorted descending.
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Estimate < pairs[i].Estimate {
			t.Fatalf("pairs not sorted at %d", i)
		}
	}
	found := false
	for _, pe := range pairs {
		if pe.Pair == (LabelPair{T1: 1, T2: 2}) {
			found = true
			truth := float64(CountTargetEdgesExact(g, pe.Pair))
			if pe.Estimate < truth/2 || pe.Estimate > truth*2 {
				t.Errorf("(1,2) estimate %.0f outside 2x of truth %.0f", pe.Estimate, truth)
			}
		}
	}
	if !found {
		t.Error("(1,2) not discovered despite being abundant")
	}
}

func TestDiscoverLabelPairsValidation(t *testing.T) {
	empty, err := NewBuilder(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverLabelPairs(empty, 0.1, 1); err == nil {
		t.Error("want error for edgeless graph")
	}
}

func TestEstimateGraphSizeFacade(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.3, 14)
	if err != nil {
		t.Fatal(err)
	}
	n, e, err := EstimateGraphSize(g, 0.3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n < float64(g.NumNodes())/2 || n > float64(g.NumNodes())*2 {
		t.Errorf("|V| estimate %.0f outside 2x of %d", n, g.NumNodes())
	}
	if e < float64(g.NumEdges())/2 || e > float64(g.NumEdges())*2 {
		t.Errorf("|E| estimate %.0f outside 2x of %d", e, g.NumEdges())
	}
}
