package experiment

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
)

func genderGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, err := gen.BarabasiAlbert(600, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Apply(g0, &gen.GenderLabeler{PFemale: 0.3, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

func TestAlgorithmLists(t *testing.T) {
	if len(AllAlgorithms()) != 10 {
		t.Errorf("AllAlgorithms = %d entries, want 10", len(AllAlgorithms()))
	}
	if len(ProposedAlgorithms()) != 5 {
		t.Errorf("ProposedAlgorithms = %d entries, want 5", len(ProposedAlgorithms()))
	}
	for _, a := range ProposedAlgorithms() {
		if !IsProposed(a) {
			t.Errorf("%s should be proposed", a)
		}
	}
	if IsProposed(EXRW) {
		t.Error("EX-RW is not a proposed algorithm")
	}
}

func TestAlgFamilyUnknown(t *testing.T) {
	if _, _, err := algFamily(Algorithm("nope")); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

func TestDefaultFractions(t *testing.T) {
	fs := DefaultFractions()
	if len(fs) != 10 {
		t.Fatalf("len = %d, want 10", len(fs))
	}
	if fs[0] != 0.005 || fs[9] != 0.05 {
		t.Errorf("grid = %v, want 0.005..0.05", fs)
	}
}

func TestRunSweepValidation(t *testing.T) {
	g := genderGraph(t, 1)
	if _, err := RunSweep(SweepConfig{Reps: 5}); err == nil {
		t.Error("want error for nil graph")
	}
	if _, err := RunSweep(SweepConfig{Graph: g, Pair: graph.LabelPair{T1: 1, T2: 2}, Reps: 0}); err == nil {
		t.Error("want error for zero reps")
	}
	if _, err := RunSweep(SweepConfig{Graph: g, Pair: graph.LabelPair{T1: 55, T2: 56}, Reps: 2}); err == nil {
		t.Error("want error for zero-target pair")
	}
}

func TestRunSweepEndToEnd(t *testing.T) {
	g := genderGraph(t, 2)
	pair := graph.LabelPair{T1: 1, T2: 2}
	res, err := RunSweep(SweepConfig{
		Graph:     g,
		Pair:      pair,
		Fractions: []float64{0.02, 0.08},
		Reps:      30,
		Params:    RunParams{BurnIn: 100, Alpha: 0.15, Delta: 0.5},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truth != exact.CountTargetEdges(g, pair) {
		t.Errorf("Truth = %d", res.Truth)
	}
	if len(res.NRMSE) != 10 {
		t.Fatalf("NRMSE covers %d algorithms, want 10", len(res.NRMSE))
	}
	for a, row := range res.NRMSE {
		if len(row) != 2 {
			t.Fatalf("%s: %d columns, want 2", a, len(row))
		}
		for fi, v := range row {
			if v < 0 {
				t.Errorf("%s[%d]: negative NRMSE %g", a, fi, v)
			}
		}
	}
	// The proposed NS-HH at 8%|V| on an abundant pair must be decent.
	if res.NRMSE[NSHH][1] > 0.6 {
		t.Errorf("NS-HH NRMSE at 8%%|V| = %g, want < 0.6", res.NRMSE[NSHH][1])
	}
	// Best must return something sensible.
	alg, v := res.Best(1)
	if alg == "" || v <= 0 {
		t.Errorf("Best = %q/%g", alg, v)
	}
	algP, vP := res.BestProposed(1)
	if !IsProposed(algP) {
		t.Errorf("BestProposed returned %q", algP)
	}
	if vP < v {
		t.Errorf("BestProposed %g better than global best %g", vP, v)
	}
}

func TestRunSweepDeterministicInSeed(t *testing.T) {
	g := genderGraph(t, 3)
	pair := graph.LabelPair{T1: 1, T2: 2}
	run := func() *SweepResult {
		res, err := RunSweep(SweepConfig{
			Graph:      g,
			Pair:       pair,
			Fractions:  []float64{0.03},
			Reps:       10,
			Algorithms: []Algorithm{NSHH, NEHH},
			Params:     RunParams{BurnIn: 50},
			Seed:       42,
			Workers:    3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, alg := range []Algorithm{NSHH, NEHH} {
		if a.NRMSE[alg][0] != b.NRMSE[alg][0] {
			t.Errorf("%s: NRMSE differs across identical runs: %g vs %g",
				alg, a.NRMSE[alg][0], b.NRMSE[alg][0])
		}
	}
}

// TestSweepSeedsDistinct: every repetition of a sweep walks its own seed —
// the paper's 10 fractions × 200 reps draw 2,000 distinct cell seeds, and a
// frequency sweep's 100 reps draw 100 (numbered stats.Derive tags gave 164
// and under 40).
func TestSweepSeedsDistinct(t *testing.T) {
	for _, root := range []int64{1, 7, 2018} {
		for name, n := range map[string]int{"sweep": 10 * 200, "freqshared": 100} {
			seen := make(map[int64]bool, n)
			for _, s := range repSeeds(root, name, n) {
				seen[s] = true
			}
			if len(seen) != n {
				t.Errorf("root %d: %s drew %d distinct seeds for %d repetitions", root, name, len(seen), n)
			}
		}
	}
}

func TestRunSweepSubsetOfAlgorithms(t *testing.T) {
	g := genderGraph(t, 4)
	res, err := RunSweep(SweepConfig{
		Graph:      g,
		Pair:       graph.LabelPair{T1: 1, T2: 2},
		Fractions:  []float64{0.02},
		Reps:       5,
		Algorithms: []Algorithm{NERW},
		Params:     RunParams{BurnIn: 50},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NRMSE) != 1 {
		t.Errorf("got %d algorithms, want 1", len(res.NRMSE))
	}
	if _, ok := res.NRMSE[NERW]; !ok {
		t.Error("NERW missing from results")
	}
}

func TestRenderSweepTable(t *testing.T) {
	g := genderGraph(t, 5)
	res, err := RunSweep(SweepConfig{
		Graph:     g,
		Pair:      graph.LabelPair{T1: 1, T2: 2},
		Fractions: []float64{0.02, 0.05},
		Reps:      5,
		Params:    RunParams{BurnIn: 50},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderSweepTable(res, "Table X: test")
	if !strings.Contains(out, "Table X: test") {
		t.Error("title missing")
	}
	for _, a := range AllAlgorithms() {
		if !strings.Contains(out, string(a)) {
			t.Errorf("algorithm %s missing from table", a)
		}
	}
	if !strings.Contains(out, "2.0%|V|") || !strings.Contains(out, "5.0%|V|") {
		t.Error("column headers missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("best-cell marker missing")
	}
}

func TestFrequencySweepAndFigure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g0, community, err := gen.SBM([]int{300, 200, 100, 60}, 0.08, 0.004, rng)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := gen.Apply(g0, &gen.CommunityLocationLabeler{
		Community: community, PNoise: 0.05, NumLabels: 4, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.LargestComponent(g1)

	pairs := SelectPairsSpanning(g, 3, 5)
	if len(pairs) != 3 {
		t.Fatalf("SelectPairsSpanning returned %d pairs", len(pairs))
	}
	points, err := RunFrequencySweep(FrequencySweepConfig{
		Graph:    g,
		Pairs:    pairs,
		Fraction: 0.05,
		Reps:     10,
		Params:   RunParams{BurnIn: 100},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Count <= 0 || p.RelativeCount <= 0 {
			t.Errorf("point %v has no targets", p.Pair)
		}
		if len(p.NRMSE) != 5 {
			t.Errorf("point %v covers %d algorithms, want 5", p.Pair, len(p.NRMSE))
		}
	}
	fig := RenderFrequencyFigure(points, ProposedAlgorithms(), "Figure X")
	if !strings.Contains(fig, "Figure X") || !strings.Contains(fig, "F/|E|") {
		t.Error("figure rendering incomplete")
	}
}

func TestSelectPairsSpanningFilters(t *testing.T) {
	g := genderGraph(t, 7)
	// Only one qualifying pair type on a gender graph: (1,1),(1,2),(2,2).
	pairs := SelectPairsSpanning(g, 10, 1)
	if len(pairs) == 0 || len(pairs) > 3 {
		t.Errorf("got %d pairs, want 1..3", len(pairs))
	}
	// A ludicrous minimum excludes everything.
	if got := SelectPairsSpanning(g, 4, 1<<40); got != nil {
		t.Errorf("want nil for impossible minimum, got %v", got)
	}
	if got := SelectPairsSpanning(g, 0, 1); got != nil {
		t.Errorf("want nil for count=0, got %v", got)
	}
}

func TestRunFrequencySweepValidation(t *testing.T) {
	if _, err := RunFrequencySweep(FrequencySweepConfig{}); err == nil {
		t.Error("want error for nil graph")
	}
	g := genderGraph(t, 8)
	if _, err := RunFrequencySweep(FrequencySweepConfig{Graph: g}); err == nil {
		t.Error("want error for no pairs")
	}
}

func TestRenderBoundsAndBestTables(t *testing.T) {
	rows := []BoundsRow{{Pair: graph.LabelPair{T1: 1, T2: 2}}}
	rows[0].Bounds.NeighborSampleHH = 1234
	rows[0].Bounds.NeighborSampleHT = 5.6e7
	out := RenderBoundsTable(rows, "Table B")
	if !strings.Contains(out, "Table B") || !strings.Contains(out, "1234") || !strings.Contains(out, "5.60e+07") {
		t.Errorf("bounds table rendering wrong:\n%s", out)
	}
	best := RenderBestTable([]BestRow{{Dataset: "x", Pair: graph.LabelPair{T1: 1, T2: 2}, Alg: NSHH, NRMSE: 0.12}}, "Table C")
	if !strings.Contains(best, "Table C") || !strings.Contains(best, "NeighborSample-HH") || !strings.Contains(best, "0.120") {
		t.Errorf("best table rendering wrong:\n%s", best)
	}
}

func TestRenderDatasetStats(t *testing.T) {
	out := RenderDatasetStats([]DatasetStatsRow{{
		Name: "facebook", Nodes: 4000, Edges: 88000, MaxDegree: 500,
		MeanDegree: 44, PaperNodes: 4e3, PaperEdges: 8.82e4, LabelScheme: "gender",
	}}, "Table 1")
	if !strings.Contains(out, "facebook") || !strings.Contains(out, "88000") {
		t.Errorf("stats table rendering wrong:\n%s", out)
	}
}

func TestBiasVarianceDecomposition(t *testing.T) {
	g := genderGraph(t, 9)
	res, err := RunSweep(SweepConfig{
		Graph:      g,
		Pair:       graph.LabelPair{T1: 1, T2: 2},
		Fractions:  []float64{0.05},
		Reps:       30,
		Algorithms: []Algorithm{NSHH},
		Params:     RunParams{BurnIn: 100},
		Seed:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	bias2, variance, ok := res.BiasVariance(NSHH, 0)
	if !ok {
		t.Fatal("decomposition unavailable")
	}
	nrmse := res.NRMSE[NSHH][0]
	// NRMSE² must equal bias² + variance up to floating point.
	if diff := math.Abs(nrmse*nrmse - (bias2 + variance)); diff > 1e-9 {
		t.Errorf("NRMSE² = %.6f but bias²+var = %.6f", nrmse*nrmse, bias2+variance)
	}
	// HH is unbiased: variance must dominate.
	if bias2 > variance {
		t.Errorf("bias² %.4f exceeds variance %.4f for an unbiased estimator", bias2, variance)
	}
	if _, _, ok := res.BiasVariance(NEHH, 0); ok {
		t.Error("decomposition for an un-run algorithm should report !ok")
	}
}
