package baseline

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

func genderGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, err := gen.BarabasiAlbert(800, 4, rng)
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

func newSession(t testing.TB, g *graph.Graph) *osn.Session {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultOpts(g *graph.Graph, seed int64) Options {
	return Options{
		BurnIn:     150,
		Rng:        rand.New(rand.NewSource(seed)),
		Alpha:      0.15,
		Delta:      0.5,
		MaxDegreeG: exact.MaxDegree(g),
	}
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 5 {
		t.Fatalf("got %d methods, want 5", len(ms))
	}
}

func TestEstimateValidation(t *testing.T) {
	g := genderGraph(t, 1)
	s := newSession(t, g)
	pair := graph.LabelPair{T1: 1, T2: 2}
	if _, err := Estimate(s, pair, RW, 0, defaultOpts(g, 2)); err == nil {
		t.Error("want error for k=0")
	}
	opts := defaultOpts(g, 3)
	opts.Rng = nil
	if _, err := Estimate(s, pair, RW, 10, opts); err == nil {
		t.Error("want error for nil Rng")
	}
	opts = defaultOpts(g, 4)
	opts.BurnIn = -1
	if _, err := Estimate(s, pair, RW, 10, opts); err == nil {
		t.Error("want error for negative burn-in")
	}
	if _, err := Estimate(s, pair, Method("bogus"), 10, defaultOpts(g, 5)); err == nil {
		t.Error("want error for unknown method")
	}
}

func TestEstimateRequiresMaxDegreeForMDAndGMD(t *testing.T) {
	g := genderGraph(t, 6)
	pair := graph.LabelPair{T1: 1, T2: 2}
	for _, m := range []Method{MDRW, GMD} {
		s := newSession(t, g)
		opts := defaultOpts(g, 7)
		opts.MaxDegreeG = 0
		if _, err := Estimate(s, pair, m, 10, opts); err == nil {
			t.Errorf("%s: want error without MaxDegreeG", m)
		}
	}
	// GMD also needs Delta.
	s := newSession(t, g)
	opts := defaultOpts(g, 8)
	opts.Delta = 0
	if _, err := Estimate(s, pair, GMD, 10, opts); err == nil {
		t.Error("GMD: want error without Delta")
	}
}

// TestAllBaselinesConverge is the load-bearing test: every EX-* method must
// average close to the truth over repetitions — they are all consistent
// estimators, just with higher variance than the proposed algorithms.
func TestAllBaselinesConverge(t *testing.T) {
	g := genderGraph(t, 9)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	const reps = 60
	const k = 400
	for _, m := range Methods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			t.Parallel()
			ests := make([]float64, 0, reps)
			for i := 0; i < reps; i++ {
				s := newSession(t, g)
				res, err := Estimate(s, pair, m, k, defaultOpts(g, int64(100+i)))
				if err != nil {
					t.Fatal(err)
				}
				ests = append(ests, res.Estimate)
			}
			bias := stats.RelativeBias(ests, truth)
			// MDRW/GMD have notoriously high variance (the paper's tables
			// show NRMSE > 1); give them a wider band.
			tol := 0.12
			if m == MDRW || m == GMD {
				tol = 0.5
			}
			if math.Abs(bias) > tol {
				t.Errorf("%s relative bias %.3f exceeds %.2f (truth %.0f, mean %.0f)",
					m, bias, tol, truth, stats.Mean(ests))
			}
		})
	}
}

func TestEstimateReportsAccounting(t *testing.T) {
	g := genderGraph(t, 10)
	s := newSession(t, g)
	res, err := Estimate(s, graph.LabelPair{T1: 1, T2: 2}, RW, 100, defaultOpts(g, 11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 100 {
		t.Errorf("Samples = %d, want 100", res.Samples)
	}
	if res.APICalls <= 0 {
		t.Error("no API calls recorded")
	}
	if res.TargetHits < 0 || res.TargetHits > 100 {
		t.Errorf("TargetHits = %d out of range", res.TargetHits)
	}
	if res.Estimate < 0 {
		t.Errorf("negative estimate %g", res.Estimate)
	}
}

func TestEstimateZeroTargets(t *testing.T) {
	g := genderGraph(t, 12)
	s := newSession(t, g)
	res, err := Estimate(s, graph.LabelPair{T1: 77, T2: 78}, MHRW, 100, defaultOpts(g, 13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || res.TargetHits != 0 {
		t.Errorf("absent labels must estimate 0, got %g (%d hits)", res.Estimate, res.TargetHits)
	}
}

func TestBaselineBudgetSurfaces(t *testing.T) {
	g := genderGraph(t, 14)
	s, err := osn.NewSessionFrom(&failingSource{GraphSource: osn.NewGraphSource(g), failAt: 5}, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(s, graph.LabelPair{T1: 1, T2: 2}, RW, 100, defaultOpts(g, 15)); !errors.Is(err, errUpstream) {
		t.Errorf("err = %v, want the upstream failure", err)
	}
}

// failingSource fails its failAt-th friend-list fetch (counting from 1) and
// answers every other one from the in-memory graph.
type failingSource struct {
	osn.GraphSource
	failAt int64
	calls  atomic.Int64
}

var errUpstream = errors.New("upstream failure")

func (f *failingSource) Neighbors(u graph.Node) ([]graph.Node, error) {
	if f.calls.Add(1) == f.failAt {
		return nil, errUpstream
	}
	return f.GraphSource.Neighbors(u)
}

func TestBaselineMoreSamplesLowerError(t *testing.T) {
	g := genderGraph(t, 16)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	nrmseAt := func(k int) float64 {
		ests := make([]float64, 0, 40)
		for i := 0; i < 40; i++ {
			s := newSession(t, g)
			res, err := Estimate(s, pair, RW, k, defaultOpts(g, int64(500+i)))
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, res.Estimate)
		}
		return stats.NRMSE(ests, truth)
	}
	small := nrmseAt(50)
	large := nrmseAt(800)
	if large >= small {
		t.Errorf("NRMSE did not improve with sample size: %g (k=50) -> %g (k=800)", small, large)
	}
}
