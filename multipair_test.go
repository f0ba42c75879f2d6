package repro

import (
	"math"
	"testing"

	"repro/internal/exact"
)

// pairsFromCensus returns up to n estimable label pairs of g, most frequent
// first, padding by repetition (repeat queries are legitimate: two clients
// asking about the same pair).
func pairsFromCensus(t testing.TB, g *Graph, n int) []LabelPair {
	t.Helper()
	census := exact.LabelPairCensus(g)
	var pairs []LabelPair
	for _, pc := range census {
		if pc.Count > 0 {
			pairs = append(pairs, pc.Pair)
		}
	}
	if len(pairs) == 0 {
		t.Fatal("graph has no labeled pairs")
	}
	for len(pairs) < n {
		pairs = append(pairs, pairs[len(pairs)%len(pairs)])
	}
	return pairs[:n]
}

// TestEstimateManyPairsAmortizesAPICalls is the acceptance pin for the
// multi-pair engine: 32 pairs from one shared walk cost at most 1.2× the
// API calls of a single-pair estimate (the per-pair NRMSE equality is
// pinned exactly by core's replay-consistency tests: the replayed
// estimators ARE the standalone estimators over the same walk).
func TestEstimateManyPairsAmortizesAPICalls(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.5, 21)
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairsFromCensus(t, g, 32)
	const samples, burn = 1200, 200

	res, err := EstimateManyPairs(g, pairs, MultiPairOptions{
		Samples: samples, BurnIn: burn, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 32 {
		t.Fatalf("got %d pair results, want 32", len(res.Pairs))
	}

	single, err := EstimateTargetEdges(g, pairs[0], EstimateOptions{
		Method: NeighborExplorationHH, Samples: samples, BurnIn: burn, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.APICalls) / float64(single.APICalls)
	if ratio > 1.2 {
		t.Errorf("32 pairs cost %.2f× a single-pair estimate (%d vs %d calls), want <= 1.2×",
			ratio, res.APICalls, single.APICalls)
	}

	// Every abundant pair's NE-HH estimate must be in the right ballpark.
	checked := 0
	for _, pr := range res.Pairs[:5] {
		truth := float64(CountTargetEdgesExact(g, pr.Pair))
		if truth < 100 {
			continue
		}
		checked++
		est := pr.NE.HH
		if relErr := math.Abs(est-truth) / truth; relErr > 1.0 {
			t.Errorf("pair %v: NE-HH %.0f vs truth %.0f (rel err %.2f)", pr.Pair, est, truth, relErr)
		}
	}
	if checked == 0 {
		t.Error("no abundant pair to sanity-check")
	}
}

func TestEstimateManyPairsValidationAndDeterminism(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.2, 22)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateManyPairs(g, nil, MultiPairOptions{Samples: 100, BurnIn: 50}); err == nil {
		t.Error("want error for empty pair list")
	}
	empty, err := NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateManyPairs(empty, []LabelPair{{T1: 1, T2: 2}}, MultiPairOptions{}); err == nil {
		t.Error("want error for empty graph")
	}

	pairs := pairsFromCensus(t, g, 4)
	run := func(walkers int) *MultiPairResult {
		res, err := EstimateManyPairs(g, pairs, MultiPairOptions{
			Samples: 400, BurnIn: 100, Seed: 77, Walkers: walkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, w := range []int{1, 4} {
		a, b := run(w), run(w)
		for i := range a.Pairs {
			bEst := b.Pairs[i].Estimates()
			for m, v := range a.Pairs[i].Estimates() {
				if bEst[m] != v {
					t.Errorf("walkers=%d: %s for %v not deterministic: %g vs %g",
						w, m, a.Pairs[i].Pair, v, bEst[m])
				}
			}
		}
		if a.Walkers != w {
			t.Errorf("walkers = %d, want %d", a.Walkers, w)
		}
	}
}
