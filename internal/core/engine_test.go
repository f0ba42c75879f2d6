package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/walk"
)

func engineGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Build(gen.Facebook, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func engineSession(t testing.TB, g *graph.Graph) *osn.Session {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func parallelOpts(walkers int, seed int64) Options {
	return Options{
		BurnIn:  150,
		Rng:     rand.New(rand.NewSource(1)), // unused by the parallel path but required
		Start:   -1,
		Walkers: walkers,
		Seed:    seed,
	}
}

// TestNeighborSampleParallelDeterministic asserts that a multi-walker run
// is bit-identical across executions for a fixed seed, regardless of how
// the scheduler interleaves the walkers.
func TestNeighborSampleParallelDeterministic(t *testing.T) {
	g := engineGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	run := func() NeighborSampleResult {
		r, err := NeighborSample(engineSession(t, g), pair, 400, parallelOpts(4, 99))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if math.Float64bits(a.HH) != math.Float64bits(b.HH) ||
		math.Float64bits(a.HT) != math.Float64bits(b.HT) ||
		a.Samples != b.Samples || a.APICalls != b.APICalls {
		t.Errorf("multi-walker runs differ:\n%+v\n%+v", a, b)
	}
	if a.Walkers != 4 {
		t.Errorf("Walkers = %d, want 4", a.Walkers)
	}
}

// TestNeighborSampleParallelBudgetDeterministic repeats the determinism
// check in budget-driven mode, where per-walker metering is what keeps the
// stop points schedule-independent.
func TestNeighborSampleParallelBudgetDeterministic(t *testing.T) {
	g := engineGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	run := func() NeighborSampleResult {
		opts := parallelOpts(4, 7)
		opts.BudgetDriven = true
		r, err := NeighborSample(engineSession(t, g), pair, 200, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if math.Float64bits(a.HH) != math.Float64bits(b.HH) || a.Samples != b.Samples || a.APICalls != b.APICalls {
		t.Errorf("budget-driven multi-walker runs differ:\n%+v\n%+v", a, b)
	}
	if a.APICalls > 200 {
		t.Errorf("APICalls = %d, exceeds the budget of 200", a.APICalls)
	}
}

// TestNeighborSampleParallelAccuracyAndCI checks the merged estimate lands
// near the truth and the per-walker confidence interval is populated and
// ordered.
func TestNeighborSampleParallelAccuracyAndCI(t *testing.T) {
	g := engineGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	r, err := NeighborSample(engineSession(t, g), pair, 600, parallelOpts(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.HH < truth/3 || r.HH > truth*3 {
		t.Errorf("pooled HH = %.0f outside 3x of truth %.0f", r.HH, truth)
	}
	if !r.HHCI.Valid() {
		t.Fatalf("HHCI invalid: %+v", r.HHCI)
	}
	if r.HHCI.Low > r.HHCI.High || r.HHCI.Walkers != 4 || r.HHCI.Level != 0.95 {
		t.Errorf("malformed CI: %+v", r.HHCI)
	}
	if !r.HTCI.Valid() {
		t.Errorf("HTCI invalid: %+v", r.HTCI)
	}
}

// TestNeighborExplorationParallel checks determinism, accuracy and CI for
// the exploration algorithm, including the exploration surcharge path.
func TestNeighborExplorationParallel(t *testing.T) {
	g := engineGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	run := func() NeighborExplorationResult {
		opts := parallelOpts(4, 21)
		opts.BudgetDriven = true
		opts.Cost = ExplorePerNode
		r, err := NeighborExploration(engineSession(t, g), pair, 400, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if math.Float64bits(a.HH) != math.Float64bits(b.HH) ||
		math.Float64bits(a.RW) != math.Float64bits(b.RW) ||
		a.APICalls != b.APICalls || a.Explorations != b.Explorations {
		t.Errorf("multi-walker NE runs differ:\n%+v\n%+v", a, b)
	}
	if a.HH < truth/3 || a.HH > truth*3 {
		t.Errorf("pooled HH = %.0f outside 3x of truth %.0f", a.HH, truth)
	}
	// Budgets are soft, serial-style: an iteration's trailing charges may
	// overshoot a walker's share by at most one iteration's cost (a step
	// fetch, a node fetch, and one exploration surcharge).
	if a.APICalls > 400+int64(3*a.Walkers) {
		t.Errorf("APICalls = %d, exceeds the budget of 400 beyond per-walker overshoot", a.APICalls)
	}
	if !a.HHCI.Valid() || !a.RWCI.Valid() {
		t.Errorf("CIs not populated: HH %+v RW %+v", a.HHCI, a.RWCI)
	}
}

// TestEstimateCensusParallel checks the pooled census matches the serial
// shape (sorted, deduplicated) and is deterministic.
func TestEstimateCensusParallel(t *testing.T) {
	g := engineGraph(t)
	run := func() CensusResult {
		r, err := estimateCensus(engineSession(t, g), 400, parallelOpts(4, 5))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.Pairs) == 0 || len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("census sizes: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Errorf("census row %d differs: %#v vs %#v", i, a.Pairs[i], b.Pairs[i])
		}
	}
	for i := 1; i < len(a.Pairs); i++ {
		if a.Pairs[i-1].Estimate < a.Pairs[i].Estimate {
			t.Errorf("census not sorted at %d", i)
		}
	}
	if a.Samples != 400 {
		t.Errorf("Samples = %d, want 400 (quota split must not lose samples)", a.Samples)
	}
}

// TestParallelCancellation checks a pre-canceled context aborts a
// multi-walker run with the context error.
func TestParallelCancellation(t *testing.T) {
	g := engineGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := parallelOpts(4, 1)
	opts.Ctx = ctx
	_, err := NeighborSample(engineSession(t, g), graph.LabelPair{T1: 1, T2: 2}, 100, opts)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestSerialCancellation checks the serial path honors the context too.
func TestSerialCancellation(t *testing.T) {
	g := engineGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions(100, rand.New(rand.NewSource(2)))
	opts.Ctx = ctx
	_, err := NeighborSample(engineSession(t, g), graph.LabelPair{T1: 1, T2: 2}, 100, opts)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// cancelingWalker cancels its context as it takes step n.
type cancelingWalker struct {
	walk.Walker[graph.Node]
	n, steps int
	cancel   context.CancelFunc
}

func (c *cancelingWalker) Step() (graph.Node, error) {
	c.steps++
	if c.steps == c.n {
		c.cancel()
	}
	return c.Walker.Step()
}

// TestCancelMidLoopStopsAtNextStep cancels the context from inside the walk,
// as a failing fleet sibling or a departing caller does, and checks that the
// burn-in and the sampling loop each stop before the next step with
// context.Canceled.
func TestCancelMidLoopStopsAtNextStep(t *testing.T) {
	g := engineGraph(t)
	const n = 7
	newWalker := func(t *testing.T) (*cancelingWalker, context.Context, osn.API) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		m := engineSession(t, g).Meter(0)
		w, err := newWalk(m, Options{}, 0, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return &cancelingWalker{Walker: w, n: n, cancel: cancel}, ctx, m
	}
	t.Run("burn-in", func(t *testing.T) {
		w, ctx, _ := newWalker(t)
		if err := walk.BurninCtx[graph.Node](ctx, w, 100); !errors.Is(err, context.Canceled) {
			t.Fatalf("BurninCtx = %v, want context.Canceled", err)
		}
		if w.steps != n {
			t.Errorf("burn-in took %d steps, want %d", w.steps, n)
		}
	})
	t.Run("recording", func(t *testing.T) {
		w, ctx, m := newWalker(t)
		r, err := newWalkerRecording(m, w, ctx, billing{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.run(100, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("run = %v, want context.Canceled", err)
		}
		if w.steps != n || len(r.node) != n {
			t.Errorf("recording took %d steps and kept %d, want %d", w.steps, len(r.node), n)
		}
	})
}

// TestWalkersClampedToK asserts that more walkers than samples degrades
// gracefully: every walker gets a positive share.
func TestWalkersClampedToK(t *testing.T) {
	g := engineGraph(t)
	r, err := NeighborSample(engineSession(t, g), graph.LabelPair{T1: 1, T2: 2}, 3, parallelOpts(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Walkers != 3 {
		t.Errorf("Walkers = %d, want clamped to 3", r.Walkers)
	}
	if r.Samples != 3 {
		t.Errorf("Samples = %d, want 3", r.Samples)
	}
}

// TestParallelSeedsDecorrelated sanity-checks that different walker seeds
// change the outcome (the per-walker streams really derive from Seed).
func TestParallelSeedsDecorrelated(t *testing.T) {
	g := engineGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	a, err := NeighborSample(engineSession(t, g), pair, 400, parallelOpts(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NeighborSample(engineSession(t, g), pair, 400, parallelOpts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.HH) == math.Float64bits(b.HH) {
		t.Error("different seeds produced identical estimates")
	}
}

// TestParallelMatchesSerialStatistically runs many serial and multi-walker
// estimates and checks their means agree within a loose band — the merged
// estimator must target the same quantity as the serial one.
func TestParallelMatchesSerialStatistically(t *testing.T) {
	g := engineGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	const reps = 20
	meanOf := func(walkers int) float64 {
		sum := 0.0
		for i := 0; i < reps; i++ {
			var opts Options
			if walkers > 1 {
				opts = parallelOpts(walkers, int64(i))
			} else {
				opts = DefaultOptions(150, rand.New(rand.NewSource(stats.Derive(int64(i), "serial"))))
			}
			r, err := NeighborSample(engineSession(t, g), pair, 400, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.HH
		}
		return sum / reps
	}
	serial, parallel := meanOf(1), meanOf(4)
	if parallel < serial*0.7-0.1*truth || parallel > serial*1.3+0.1*truth {
		t.Errorf("means diverge: serial %.0f vs 4-walker %.0f (truth %.0f)", serial, parallel, truth)
	}
}
