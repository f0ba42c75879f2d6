package repro

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/osn"
)

func TestEstimateToPrecisionReachesTarget(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.5, 31)
	if err != nil {
		t.Fatal(err)
	}
	pair := LabelPair{T1: 1, T2: 2}
	res, err := EstimateToPrecision(g, pair, PrecisionOptions{
		TargetRelSE: 0.10,
		MaxBudget:   0.8,
		BurnIn:      200,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("target precision not reached: relSE=%.3f after %d rounds", res.RelSE, res.Rounds)
	}
	if res.RelSE > 0.10 {
		t.Errorf("RelSE = %.3f, want <= 0.10", res.RelSE)
	}
	truth := float64(CountTargetEdgesExact(g, pair))
	if math.Abs(res.Estimate-truth)/truth > 0.5 {
		t.Errorf("estimate %.0f wildly off truth %.0f", res.Estimate, truth)
	}
	if res.Rounds < 1 || res.Samples < 64 || res.APICalls <= 0 {
		t.Errorf("accounting wrong: %+v", res)
	}
}

func TestEstimateToPrecisionBudgetCap(t *testing.T) {
	g, err := GenerateStandIn("pokec", 0.3, 32)
	if err != nil {
		t.Fatal(err)
	}
	// An unreachably tight target with a tiny budget: must stop un-reached.
	res, err := EstimateToPrecision(g, LabelPair{T1: 1, T2: 2}, PrecisionOptions{
		TargetRelSE: 0.001,
		MaxBudget:   0.02,
		BurnIn:      100,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Error("0.1% relative SE should not be reachable at 2%|V| budget")
	}
	if res.APICalls == 0 {
		t.Error("no API calls recorded")
	}
}

// TestEstimateToPrecisionNeverOverspends is the regression test for the
// historical budget bug: rounds used to run on unbudgeted sessions, so the
// final doubling round could overshoot MaxBudget arbitrarily (by up to the
// whole round). The cap is now enforced by the walk's meter, which refuses
// unit charges at the cap, so the bill can never exceed it by more than one
// sampling iteration.
func TestEstimateToPrecisionNeverOverspends(t *testing.T) {
	for _, frac := range []float64{0.01, 0.03, 0.1} {
		g, err := GenerateStandIn("facebook", 0.4, 41)
		if err != nil {
			t.Fatal(err)
		}
		res, err := EstimateToPrecision(g, LabelPair{T1: 1, T2: 2}, PrecisionOptions{
			TargetRelSE: 0.0015, // unreachably tight: forces the cap to land
			MaxBudget:   frac,
			BurnIn:      150,
			Seed:        9,
		})
		if err != nil {
			t.Fatal(err)
		}
		maxCalls := int64(frac * float64(g.NumNodes()))
		if maxCalls < 100 {
			maxCalls = 100
		}
		// One sampling iteration charges at most 2 calls (step + profile
		// fetch); the meter refuses at the cap, so even that slack is unused.
		if res.APICalls > maxCalls+2 {
			t.Errorf("MaxBudget=%.2f: billed %d calls, cap %d — overshoot", frac, res.APICalls, maxCalls)
		}
		if res.Reached {
			t.Errorf("MaxBudget=%.2f: 0.15%% relSE should not be reachable", frac)
		}
		if res.APICalls == 0 || res.Samples == 0 {
			t.Errorf("MaxBudget=%.2f: partial result missing: %+v", frac, res)
		}
	}
}

// TestEstimateToPrecisionBurnInPaidOnce: the rounds resume one recorded
// walk, so the total bill stays near the sample count — re-paid burn-in
// would show up as Rounds×BurnIn extra calls.
func TestEstimateToPrecisionBurnInPaidOnce(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	const burn = 400
	res, err := EstimateToPrecision(g, LabelPair{T1: 1, T2: 2}, PrecisionOptions{
		TargetRelSE: 0.02,
		MaxBudget:   0.9,
		BurnIn:      burn,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Skipf("target met in one round (rounds=%d); burn-in amortization unobservable", res.Rounds)
	}
	// Sampling bills ≈ 1 call/sample (plus the cache-miss slack); re-paying
	// burn-in each round would add (Rounds-1)×400 calls on top.
	limit := int64(res.Samples) + int64(res.Rounds-1)*burn/2 + 100
	if res.APICalls > limit {
		t.Errorf("billed %d calls for %d samples over %d rounds — burn-in re-paid?",
			res.APICalls, res.Samples, res.Rounds)
	}
}

func TestEstimateToPrecisionValidation(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.1, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateToPrecision(g, LabelPair{T1: 1, T2: 2}, PrecisionOptions{TargetRelSE: 0}); err == nil {
		t.Error("want error for zero target")
	}
	if _, err := EstimateToPrecision(g, LabelPair{T1: 1, T2: 2}, PrecisionOptions{TargetRelSE: 1.5}); err == nil {
		t.Error("want error for target >= 1")
	}
	empty, err := NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateToPrecision(empty, LabelPair{T1: 1, T2: 2}, PrecisionOptions{TargetRelSE: 0.1}); err == nil {
		t.Error("want error for empty graph")
	}
}

// TestEstimateToPrecisionStopsWhenWalkIsCached is the regression test for a
// run that never returned: with a budget of at least |V| calls the walk
// eventually caches every friend list, cache hits are free, so the meter
// never runs out, and an unreachable target (a pair with no target edges,
// RelSE = +Inf) doubled the sample count forever. The run now stops at the
// spin cap budget-driven recordings apply (walk.SpinCap).
func TestEstimateToPrecisionStopsWhenWalkIsCached(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	const maxBudget = 1.5
	maxCalls := int64(maxBudget * float64(g.NumNodes()))
	res, err := EstimateToPrecision(g, LabelPair{T1: 90, T2: 91}, PrecisionOptions{
		TargetRelSE: 0.1,
		MaxBudget:   maxBudget,
		BurnIn:      100,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached || !math.IsInf(res.RelSE, 1) {
		t.Errorf("a pair with no target edges cannot reach the target: %+v", res)
	}
	if res.APICalls > maxCalls || int64(res.Samples) > 50*maxCalls {
		t.Errorf("run went past its caps (%d calls, %d samples): %+v", maxCalls, 50*maxCalls, res)
	}
}

// TestSpinCapRelativeToGraph: a walk cannot buy more distinct friend lists
// than there are nodes, so a budget above |V| buys no more steps than a
// budget of |V|. A budget-driven recording at k = 4|V| never reaches its
// budget, so the spin cap stops each walker at exactly 50|V| steps, for one
// walker and for two (each with a 2|V| share). EstimateToPrecision at
// MaxBudget 4 with an unreachable target stops within 50|V| samples too.
func TestSpinCapRelativeToGraph(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for _, walkers := range []int{1, 2} {
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		traj, err := core.RecordTrajectory(s, 4*n, core.Options{
			BurnIn: 50, Rng: rand.New(rand.NewSource(3)), Start: -1,
			BudgetDriven: true, Walkers: walkers, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if traj.NumWalkers() != walkers {
			t.Fatalf("W=%d: recorded %d walkers", walkers, traj.NumWalkers())
		}
		for w := 0; w < walkers; w++ {
			if got := traj.WalkerLen(w); got != 50*n {
				t.Errorf("W=%d walker %d: %d steps at k=4|V|, want the spin cap 50|V| = %d", walkers, w, got, 50*n)
			}
		}
	}
	res, err := EstimateToPrecision(g, LabelPair{T1: 90, T2: 91}, PrecisionOptions{
		TargetRelSE: 0.1,
		MaxBudget:   4,
		BurnIn:      50,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Fatalf("a pair with no target edges cannot reach the target: %+v", res)
	}
	if res.Samples > 50*n {
		t.Errorf("EstimateToPrecision took %d samples at MaxBudget 4, want at most 50|V| = %d", res.Samples, 50*n)
	}
}
