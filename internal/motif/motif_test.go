package motif

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// denseLabeledGraph builds a Watts–Strogatz graph (rich in wedges and
// triangles) with balanced gender labels.
func denseLabeledGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, err := gen.WattsStrogatz(1200, 10, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Apply(g0, &gen.GenderLabeler{PFemale: 0.45, Rng: rng})
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

// oneRow is a one-row motif answer, flattened for the tests.
type oneRow struct {
	Estimate float64
	Samples  int
	APICalls int64
	Walkers  int
	CI       core.CI
}

// countMotif records k samples over s under opts and replays the "motif"
// task for shape over the recording: the count for pair, or the unlabeled
// count without one.
func countMotif(s *osn.Session, shape string, k int, opts core.Options, pair ...graph.LabelPair) (oneRow, error) {
	traj, err := core.RecordTrajectory(s, k, opts)
	if err != nil {
		return oneRow{}, err
	}
	out, err := core.RunTask(traj, "motif", core.TaskParams{Motif: shape, Pairs: pair})
	if err != nil {
		return oneRow{}, err
	}
	r := out.(TaskResult)
	return oneRow{Estimate: r.Rows[0].Estimate, Samples: r.Samples, APICalls: r.APICalls, Walkers: r.Walkers, CI: r.Rows[0].CI}, nil
}

func TestLabeledWedgesValidation(t *testing.T) {
	g := denseLabeledGraph(t, 1)
	s := newSession(t, g)
	pair := graph.LabelPair{T1: 1, T2: 2}
	if _, err := countMotif(s, ShapeWedges, 0, core.Options{BurnIn: 10, Rng: rand.New(rand.NewSource(1)), Start: -1}, pair); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := countMotif(s, ShapeWedges, 10, core.Options{BurnIn: 10, Start: -1}, pair); err == nil {
		t.Error("want error for nil Rng")
	}
	if _, err := countMotif(s, ShapeWedges, 10, core.Options{BurnIn: -1, Rng: rand.New(rand.NewSource(1)), Start: -1}, pair); err == nil {
		t.Error("want error for negative burn-in")
	}
}

func TestLabeledWedgesUnbiased(t *testing.T) {
	g := denseLabeledGraph(t, 2)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountLabeledWedges(g, pair))
	if truth == 0 {
		t.Fatal("test graph has no labeled wedges")
	}
	const reps = 120
	ests := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := countMotif(s, ShapeWedges, 400, core.Options{BurnIn: 200, Rng: rand.New(rand.NewSource(int64(i))), Start: -1}, pair)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.Estimate)
	}
	if bias := stats.RelativeBias(ests, truth); math.Abs(bias) > 0.08 {
		t.Errorf("labeled-wedge relative bias %.3f (truth %.0f, mean %.0f)",
			bias, truth, stats.Mean(ests))
	}
}

func TestLabeledTrianglesUnbiased(t *testing.T) {
	g := denseLabeledGraph(t, 3)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountLabeledTriangles(g, pair))
	if truth == 0 {
		t.Fatal("test graph has no labeled triangles")
	}
	const reps = 120
	ests := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := countMotif(s, ShapeTriangles, 400, core.Options{BurnIn: 200, Rng: rand.New(rand.NewSource(int64(i))), Start: -1}, pair)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.Estimate)
	}
	if bias := stats.RelativeBias(ests, truth); math.Abs(bias) > 0.08 {
		t.Errorf("labeled-triangle relative bias %.3f (truth %.0f, mean %.0f)",
			bias, truth, stats.Mean(ests))
	}
}

func TestLabeledTrianglesZeroForAbsentLabels(t *testing.T) {
	g := denseLabeledGraph(t, 4)
	s := newSession(t, g)
	res, err := countMotif(s, ShapeTriangles, 200, core.Options{BurnIn: 50, Rng: rand.New(rand.NewSource(5)), Start: -1}, graph.LabelPair{T1: 88, T2: 89})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Errorf("estimate = %g, want 0", res.Estimate)
	}
}

func TestLabeledWedgesZeroForAbsentLabels(t *testing.T) {
	g := denseLabeledGraph(t, 5)
	s := newSession(t, g)
	res, err := countMotif(s, ShapeWedges, 200, core.Options{BurnIn: 50, Rng: rand.New(rand.NewSource(6)), Start: -1}, graph.LabelPair{T1: 88, T2: 89})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Errorf("estimate = %g, want 0", res.Estimate)
	}
}

func TestMotifAccountsAPICalls(t *testing.T) {
	g := denseLabeledGraph(t, 6)
	s := newSession(t, g)
	res, err := countMotif(s, ShapeTriangles, 100, core.Options{BurnIn: 50, Rng: rand.New(rand.NewSource(7)), Start: -1}, graph.LabelPair{T1: 1, T2: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.APICalls <= 0 {
		t.Error("no API calls recorded")
	}
	if res.Samples != 100 {
		t.Errorf("Samples = %d, want 100", res.Samples)
	}
}

func TestMotifBudgetSurfaces(t *testing.T) {
	g := denseLabeledGraph(t, 7)
	s, err := osn.NewSessionFrom(&failingSource{GraphSource: osn.NewGraphSource(g), failAt: 10}, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = countMotif(s, ShapeWedges, 100, core.Options{BurnIn: 500, Rng: rand.New(rand.NewSource(8)), Start: -1}, graph.LabelPair{T1: 1, T2: 2})
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
