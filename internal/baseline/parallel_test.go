package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linegraph"
	"repro/internal/osn"
	"repro/internal/walk"
)

func parallelSession(t testing.TB) (*osn.Session, *graph.Graph) {
	t.Helper()
	g, err := gen.Build(gen.Facebook, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

func TestEstimateParallelDeterministicAndAccurate(t *testing.T) {
	s, g := parallelSession(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	opts := Options{
		BurnIn:     150,
		Rng:        rand.New(rand.NewSource(1)),
		Alpha:      0.15,
		Delta:      0.5,
		MaxDegreeG: exact.MaxDegree(g),
		Walkers:    4,
		Seed:       17,
	}
	run := func() Result {
		s2, _ := parallelSession(t)
		r, err := Estimate(s2, pair, RW, 400, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	_ = s
	a, b := run(), run()
	if math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) ||
		a.Samples != b.Samples || a.APICalls != b.APICalls {
		t.Errorf("multi-walker baseline runs differ:\n%+v\n%+v", a, b)
	}
	if a.Walkers != 4 {
		t.Errorf("Walkers = %d, want 4", a.Walkers)
	}
	if !a.CI.Valid() {
		t.Errorf("CI not populated: %+v", a.CI)
	}
	if a.Estimate < truth/4 || a.Estimate > truth*4 {
		t.Errorf("estimate %.0f outside 4x of truth %.0f", a.Estimate, truth)
	}
}

func TestEstimateParallelAllMethods(t *testing.T) {
	pair := graph.LabelPair{T1: 1, T2: 2}
	for _, m := range Methods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			s, g := parallelSession(t)
			r, err := Estimate(s, pair, m, 300, Options{
				BurnIn:       100,
				Rng:          rand.New(rand.NewSource(2)),
				Alpha:        0.15,
				Delta:        0.5,
				MaxDegreeG:   exact.MaxDegree(g),
				BudgetDriven: true,
				Walkers:      3,
				Seed:         5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Walkers != 3 || r.Samples == 0 {
				t.Errorf("bad result: %+v", r)
			}
			// Soft serial-style budgets: at most one line-graph
			// transition's cost (two endpoint fetches) of overshoot per
			// walker.
			if r.APICalls > 300+int64(3*r.Walkers) {
				t.Errorf("APICalls = %d exceeds budget 300 beyond per-walker overshoot", r.APICalls)
			}
		})
	}
}

func TestEstimateParallelCancellation(t *testing.T) {
	s, g := parallelSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Estimate(s, graph.LabelPair{T1: 1, T2: 2}, RW, 100, Options{
		BurnIn:     100,
		Rng:        rand.New(rand.NewSource(3)),
		MaxDegreeG: exact.MaxDegree(g),
		Walkers:    3,
		Seed:       5,
		Ctx:        ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// cancelingWalker cancels its context as it takes step n.
type cancelingWalker struct {
	walk.Walker[graph.Edge]
	n, steps int
	cancel   context.CancelFunc
}

func (c *cancelingWalker) Step() (graph.Edge, error) {
	c.steps++
	if c.steps == c.n {
		c.cancel()
	}
	return c.Walker.Step()
}

// TestSampleCancelMidLoop cancels the context from inside the sampling loop
// and checks that it stops before the next step with context.Canceled.
func TestSampleCancelMidLoop(t *testing.T) {
	s, _ := parallelSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rng := rand.New(rand.NewSource(3))
	view := linegraph.View{S: s.Meter(0)}
	start, err := view.RandomEdge(rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	w := &cancelingWalker{Walker: walk.NewSimple[graph.Edge](view, start, rng), n: n, cancel: cancel}
	var tl tally
	if err := tl.sample(ctx, view, w, graph.LabelPair{T1: 1, T2: 2}, RW, 100, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("sample = %v, want context.Canceled", err)
	}
	if w.steps != n || tl.samples != n {
		t.Errorf("sampled %d of %d steps, want %d", tl.samples, w.steps, n)
	}
}
