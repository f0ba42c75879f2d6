package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
)

// TestNeighborSampleHHIdentityProperty: the HH estimate must equal
// |E|·hits/k exactly — Eq. 2 collapses to that closed form, so any drift
// indicates an accumulation bug.
func TestNeighborSampleHHIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g0, err := gen.BarabasiAlbert(80+rng.Intn(120), 3, rng)
		if err != nil {
			return false
		}
		g, err := gen.Apply(g0, &gen.GenderLabeler{PFemale: 0.4, Rng: rng})
		if err != nil {
			return false
		}
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			return false
		}
		res, err := NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, 50, DefaultOptions(30, rng))
		if err != nil {
			return false
		}
		want := float64(g.NumEdges()) * float64(res.TargetHits) / float64(res.Samples)
		return math.Abs(res.HH-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNeighborExplorationEstimatesNonNegativeProperty: every estimator
// output is non-negative on arbitrary labeled graphs.
func TestNeighborExplorationEstimatesNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g0, err := gen.ErdosRenyi(60+rng.Intn(60), 300, rng)
		if err != nil {
			return false
		}
		lcc, _ := graph.LargestComponent(g0)
		if lcc.NumEdges() == 0 {
			return true
		}
		// Zipf-skewed location labels over 5 locations, label 1 the largest.
		zipf := rand.NewZipf(rng, 1.1, 1, 4)
		g, err := graph.ReplaceLabels(lcc, func(graph.Node) []graph.Label {
			return []graph.Label{graph.Label(zipf.Uint64() + 1)}
		})
		if err != nil {
			return false
		}
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			return false
		}
		pair := graph.LabelPair{T1: graph.Label(1 + rng.Intn(5)), T2: graph.Label(1 + rng.Intn(5))}
		res, err := NeighborExploration(s, pair, 40, DefaultOptions(20, rng))
		if err != nil {
			return false
		}
		return res.HH >= 0 && res.HT >= 0 && res.RW >= 0 &&
			!math.IsNaN(res.HH) && !math.IsNaN(res.HT) && !math.IsNaN(res.RW)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNeighborExplorationMassIdentityProperty: the recorded target-edge
// mass must equal the sum of per-sample T values implied by the HH terms —
// verified indirectly: with all nodes of degree d (regular graph), Eq. 11
// reduces to |E|·mass/(d·k).
func TestNeighborExplorationMassIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Ring lattice: 4-regular, connected.
		g0, err := gen.WattsStrogatz(60+2*rng.Intn(40), 4, 0, rng)
		if err != nil {
			return false
		}
		g, err := gen.Apply(g0, &gen.GenderLabeler{PFemale: 0.5, Rng: rng})
		if err != nil {
			return false
		}
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			return false
		}
		res, err := NeighborExploration(s, graph.LabelPair{T1: 1, T2: 2}, 60, DefaultOptions(30, rng))
		if err != nil {
			return false
		}
		want := float64(g.NumEdges()) * float64(res.TargetEdgeMass) / (4 * float64(res.Samples))
		return math.Abs(res.HH-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBoundsMonotoneInFProperty: on a fixed graph, Theorem 4.1's bound is
// decreasing in the pair's target count.
func TestBoundsMonotoneInFProperty(t *testing.T) {
	g := rareLabelGraph(t, 61)
	census := censusOf(t, g)
	if len(census) < 3 {
		t.Skip("not enough pairs")
	}
	prevCount := int64(-1)
	prevBound := math.Inf(1)
	for _, pc := range census {
		if pc.Count == prevCount {
			continue // ties can reorder freely
		}
		b, err := ComputeBounds(g, pc.Pair, approx01())
		if err != nil {
			t.Fatal(err)
		}
		if b.NeighborSampleHH > prevBound {
			t.Errorf("NS-HH bound rose from %.0f to %.0f as F grew to %d",
				prevBound, b.NeighborSampleHH, pc.Count)
		}
		prevBound = b.NeighborSampleHH
		prevCount = pc.Count
	}
}

// censusOf and approx01 are small helpers for the property tests.
func censusOf(t *testing.T, g *graph.Graph) []exact.PairCount {
	t.Helper()
	return exact.LabelPairCensus(g)
}

func approx01() estimate.Approx { return estimate.Approx{Eps: 0.1, Delta: 0.1} }
