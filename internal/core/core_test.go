package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// genderGraph builds a labeled BA graph used across the core tests:
// ~1500 nodes, labels 1/2 with P(1) = 0.3.
func genderGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, err := gen.BarabasiAlbert(1500, 5, rng)
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

// rareLabelGraph builds an SBM graph with community-correlated location
// labels, giving several rare label pairs.
func rareLabelGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, community, err := gen.SBM([]int{600, 300, 200, 100}, 0.05, 0.002, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Apply(g0, &gen.CommunityLocationLabeler{
		Community: community, PNoise: 0.05, NumLabels: 4, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

func newSession(t testing.TB, g *graph.Graph) *osn.Session {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNeighborSampleValidation(t *testing.T) {
	g := genderGraph(t, 1)
	s := newSession(t, g)
	pair := graph.LabelPair{T1: 1, T2: 2}
	rng := rand.New(rand.NewSource(1))
	if _, err := NeighborSample(s, pair, 0, DefaultOptions(10, rng)); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := NeighborSample(s, pair, 10, Options{BurnIn: 10, Start: -1}); err == nil {
		t.Error("want error for nil Rng")
	}
	if _, err := NeighborSample(s, pair, 10, Options{BurnIn: -1, Rng: rng, Start: -1}); err == nil {
		t.Error("want error for negative burn-in")
	}
	if _, err := NeighborSample(s, pair, 10, Options{Rng: rng, Start: -1, ThinGap: -1}); err == nil {
		t.Error("want error for negative thin gap")
	}
}

func TestNeighborSampleBasicRun(t *testing.T) {
	g := genderGraph(t, 2)
	s := newSession(t, g)
	pair := graph.LabelPair{T1: 1, T2: 2}
	res, err := NeighborSample(s, pair, 200, DefaultOptions(100, rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 200 {
		t.Errorf("Samples = %d, want 200", res.Samples)
	}
	if res.HH < 0 || res.HT < 0 {
		t.Errorf("negative estimates: HH=%g HT=%g", res.HH, res.HT)
	}
	if res.DistinctEdges == 0 || res.DistinctEdges > 200 {
		t.Errorf("DistinctEdges = %d out of range", res.DistinctEdges)
	}
	if res.APICalls == 0 {
		t.Error("no API calls charged")
	}
	truth := float64(exact.CountTargetEdges(g, pair))
	// Single run with k=200: loose factor-of-3 sanity band.
	if res.HH < truth/3 || res.HH > truth*3 {
		t.Errorf("HH = %g wildly off truth %g", res.HH, truth)
	}
}

func TestNeighborSampleHHUnbiased(t *testing.T) {
	g := genderGraph(t, 4)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	const reps = 150
	ests := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := NeighborSample(s, pair, 300, DefaultOptions(150, rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.HH)
	}
	if bias := stats.RelativeBias(ests, truth); math.Abs(bias) > 0.05 {
		t.Errorf("HH relative bias %.3f, want |bias| < 0.05", bias)
	}
}

func TestNeighborSampleFixedStart(t *testing.T) {
	g := genderGraph(t, 5)
	s := newSession(t, g)
	opts := DefaultOptions(50, rand.New(rand.NewSource(6)))
	opts.Start = 0
	if _, err := NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, 50, opts); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborSampleThinning(t *testing.T) {
	g := genderGraph(t, 7)
	s := newSession(t, g)
	opts := DefaultOptions(50, rand.New(rand.NewSource(8)))
	opts.ThinGap = 10
	res, err := NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Only every 10th sample feeds HT: at most 20 distinct units.
	if res.DistinctEdges > 20 {
		t.Errorf("DistinctEdges = %d, want <= 20 with thinning", res.DistinctEdges)
	}
	// HH still uses all 200.
	if res.Samples != 200 {
		t.Errorf("Samples = %d, want 200", res.Samples)
	}
}

func TestNeighborSampleThinningTooAggressive(t *testing.T) {
	g := genderGraph(t, 9)
	s := newSession(t, g)
	opts := DefaultOptions(10, rand.New(rand.NewSource(10)))
	opts.ThinGap = 100
	if _, err := NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, 50, opts); err == nil {
		t.Error("want error when thinning leaves no samples")
	}
}

func TestNeighborSampleBudgetExhaustion(t *testing.T) {
	g := genderGraph(t, 11)
	s, err := osn.NewSessionFrom(&failingSource{GraphSource: osn.NewGraphSource(g), failAt: 20}, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The upstream gives out during burn-in: the failure must surface.
	_, err = NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, 100, DefaultOptions(1000, rand.New(rand.NewSource(12))))
	if !errors.Is(err, errUpstream) {
		t.Fatalf("err = %v, want the upstream failure", err)
	}
}

func TestNeighborSampleZeroTargetPair(t *testing.T) {
	g := genderGraph(t, 13)
	s := newSession(t, g)
	res, err := NeighborSample(s, graph.LabelPair{T1: 98, T2: 99}, 100, DefaultOptions(50, rand.New(rand.NewSource(14))))
	if err != nil {
		t.Fatal(err)
	}
	if res.HH != 0 || res.HT != 0 || res.TargetHits != 0 {
		t.Errorf("absent labels must estimate 0, got HH=%g HT=%g hits=%d", res.HH, res.HT, res.TargetHits)
	}
}

func TestNeighborExplorationValidation(t *testing.T) {
	g := genderGraph(t, 15)
	s := newSession(t, g)
	rng := rand.New(rand.NewSource(16))
	if _, err := NeighborExploration(s, graph.LabelPair{T1: 1, T2: 2}, 0, DefaultOptions(10, rng)); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := NeighborExploration(s, graph.LabelPair{T1: 1, T2: 2}, 10, Options{BurnIn: 10, Start: -1}); err == nil {
		t.Error("want error for nil Rng")
	}
}

func TestNeighborExplorationBasicRun(t *testing.T) {
	g := genderGraph(t, 17)
	s := newSession(t, g)
	pair := graph.LabelPair{T1: 1, T2: 2}
	res, err := NeighborExploration(s, pair, 200, DefaultOptions(100, rand.New(rand.NewSource(18))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 200 {
		t.Errorf("Samples = %d", res.Samples)
	}
	// Every node carries label 1 or 2, so every distinct visited node is
	// explored exactly once.
	if res.Explorations != res.DistinctNodes {
		t.Errorf("Explorations = %d, want DistinctNodes = %d (all nodes labeled)",
			res.Explorations, res.DistinctNodes)
	}
	truth := float64(exact.CountTargetEdges(g, pair))
	for name, est := range map[string]float64{"HH": res.HH, "HT": res.HT, "RW": res.RW} {
		if est < truth/3 || est > truth*3 {
			t.Errorf("%s = %g wildly off truth %g", name, est, truth)
		}
	}
}

func TestNeighborExplorationHHAndRWUnbiased(t *testing.T) {
	g := rareLabelGraph(t, 19)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	if truth == 0 {
		t.Fatal("test graph has no target edges")
	}
	const reps = 150
	hh := make([]float64, 0, reps)
	rw := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := NeighborExploration(s, pair, 400, DefaultOptions(200, rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		hh = append(hh, res.HH)
		rw = append(rw, res.RW)
	}
	if bias := stats.RelativeBias(hh, truth); math.Abs(bias) > 0.08 {
		t.Errorf("HH relative bias %.3f", bias)
	}
	if bias := stats.RelativeBias(rw, truth); math.Abs(bias) > 0.08 {
		t.Errorf("RW relative bias %.3f", bias)
	}
}

func TestNeighborExplorationSkipsUnlabeledNodes(t *testing.T) {
	// Labels only on two adjacent nodes: exploration should happen only
	// when the walk hits them.
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.Node{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetLabels(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLabels(1, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	res, err := NeighborExploration(s, graph.LabelPair{T1: 1, T2: 2}, 500, DefaultOptions(100, rand.New(rand.NewSource(20))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Explorations == 0 {
		t.Error("walk never explored the labeled nodes")
	}
	if res.Explorations == res.Samples {
		t.Error("every sample explored despite most nodes being unlabeled")
	}
	truth := float64(exact.CountTargetEdges(g, graph.LabelPair{T1: 1, T2: 2}))
	if truth != 1 {
		t.Fatalf("test setup: truth = %g, want 1", truth)
	}
}

func TestNeighborExplorationTargetMassConsistency(t *testing.T) {
	g := genderGraph(t, 21)
	s := newSession(t, g)
	res, err := NeighborExploration(s, graph.LabelPair{T1: 1, T2: 2}, 300, DefaultOptions(100, rand.New(rand.NewSource(22))))
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetEdgeMass < 0 {
		t.Error("negative target edge mass")
	}
	if res.TargetEdgeMass == 0 && res.HH != 0 {
		t.Error("zero mass but nonzero HH estimate")
	}
}

func TestNeighborSampleIndependentMatchesTruth(t *testing.T) {
	g := genderGraph(t, 23)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	var sum float64
	const reps = 40
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := NeighborSampleIndependent(s, pair, 60, DefaultOptions(40, rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		sum += res.HH
	}
	mean := sum / reps
	if mean < truth*0.8 || mean > truth*1.2 {
		t.Errorf("independent-restart HH mean %.0f, want ~%.0f", mean, truth)
	}
}

func TestNeighborSampleIndependentCostsMore(t *testing.T) {
	g := genderGraph(t, 25)
	pair := graph.LabelPair{T1: 1, T2: 2}
	opts := DefaultOptions(100, rand.New(rand.NewSource(26)))

	s1 := newSession(t, g)
	single, err := NeighborSample(s1, pair, 50, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(t, g)
	indep, err := NeighborSampleIndependent(s2, pair, 50, DefaultOptions(100, rand.New(rand.NewSource(27))))
	if err != nil {
		t.Fatal(err)
	}
	// The whole point of the paper's single-walk implementation: restarting
	// pays burn-in per sample.
	if indep.APICalls < 5*single.APICalls {
		t.Errorf("independent restarts cost %d calls vs single walk %d; expected >= 5x",
			indep.APICalls, single.APICalls)
	}
}

// newRng is a tiny helper for seed-stamped generators in tests.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
