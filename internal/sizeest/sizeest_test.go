package sizeest

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := gen.BarabasiAlbert(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newSession(t testing.TB, g *graph.Graph) *osn.Session {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// estimateSize records k samples over s under opts and replays the "size"
// task over the recording.
func estimateSize(s *osn.Session, k int, opts core.Options) (Result, error) {
	traj, err := core.RecordTrajectory(s, k, opts)
	if err != nil {
		return Result{}, err
	}
	out, err := core.RunTask(traj, "size", core.TaskParams{})
	if err != nil {
		return Result{}, err
	}
	return out.(Result), nil
}

func TestEstimateValidation(t *testing.T) {
	g := testGraph(t, 200, 1)
	s := newSession(t, g)
	rng := rand.New(rand.NewSource(1))
	if _, err := estimateSize(s, 1, core.Options{BurnIn: 10, Rng: rng, Start: -1}); err == nil {
		t.Error("want error for k<=1: one sample cannot collide")
	}
	if _, err := estimateSize(s, 100, core.Options{BurnIn: 10, Start: -1}); err == nil {
		t.Error("want error for nil Rng")
	}
	if _, err := estimateSize(s, 100, core.Options{BurnIn: -1, Rng: rng, Start: -1}); err == nil {
		t.Error("want error for negative burn-in")
	}
}

func TestEstimateAccuracy(t *testing.T) {
	g := testGraph(t, 2000, 2)
	truthN := float64(g.NumNodes())
	truthE := float64(g.NumEdges())
	const reps = 25
	var ns, es []float64
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		// 40% of |V| samples: plenty of collisions.
		res, err := estimateSize(s, 800, core.Options{BurnIn: 300, Rng: rand.New(rand.NewSource(int64(i))), Start: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Collisions <= 0 {
			t.Fatal("no collisions recorded")
		}
		ns = append(ns, res.Nodes)
		es = append(es, res.Edges)
	}
	if bias := stats.RelativeBias(ns, truthN); math.Abs(bias) > 0.20 {
		t.Errorf("|V| bias %.3f (truth %.0f, mean %.0f)", bias, truthN, stats.Mean(ns))
	}
	if bias := stats.RelativeBias(es, truthE); math.Abs(bias) > 0.20 {
		t.Errorf("|E| bias %.3f (truth %.0f, mean %.0f)", bias, truthE, stats.Mean(es))
	}
}

func TestEstimateTooFewSamplesForCollisions(t *testing.T) {
	// Tiny budget on a large hub-free graph (hubs would collide instantly):
	// collision count 0 must be an error, not a garbage estimate.
	rng := rand.New(rand.NewSource(3))
	g0, err := gen.ErdosRenyi(30000, 90000, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.LargestComponent(g0)
	s := newSession(t, g)
	_, err = estimateSize(s, 15, core.Options{BurnIn: 100, Rng: rand.New(rand.NewSource(4)), Start: -1})
	if err == nil {
		t.Error("want error when no collisions occur")
	}
}

func TestEstimateAccounting(t *testing.T) {
	g := testGraph(t, 500, 5)
	s := newSession(t, g)
	res, err := estimateSize(s, 300, core.Options{BurnIn: 100, Rng: rand.New(rand.NewSource(6)), Start: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 300 {
		t.Errorf("Samples = %d", res.Samples)
	}
	if res.APICalls <= 0 || res.APICalls > 301 {
		t.Errorf("APICalls = %d out of range", res.APICalls)
	}
}

func TestMeanDegreeEstimate(t *testing.T) {
	g := testGraph(t, 1000, 14)
	truth := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	var sum float64
	const reps = 30
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := estimateSize(s, 400, core.Options{BurnIn: 200, Rng: rand.New(rand.NewSource(int64(100 + i))), Start: -1})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.MeanDegree
	}
	got := sum / reps
	if math.Abs(got-truth)/truth > 0.10 {
		t.Errorf("mean degree estimate %.2f, truth %.2f", got, truth)
	}
}

func TestEstimateBudgetSurfaces(t *testing.T) {
	g := testGraph(t, 500, 8)
	s, err := osn.NewSessionFrom(&failingSource{GraphSource: osn.NewGraphSource(g), failAt: 10}, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = estimateSize(s, 200, core.Options{BurnIn: 100, Rng: rand.New(rand.NewSource(9)), Start: -1})
	if !errors.Is(err, errUpstream) {
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
