package repro

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/walk"
)

// PrecisionOptions configures EstimateToPrecision.
type PrecisionOptions struct {
	// TargetRelSE is the desired relative standard error (batch-means SE /
	// estimate); the run stops once reached. Must be in (0, 1).
	TargetRelSE float64
	// MaxBudget caps total sampling API calls as a fraction of |V| (default
	// 0.25, floored at 100 calls). The cap is hard: the walk's metered
	// budget refuses charges at the cap, so the run never overspends it —
	// at worst the final sampling iteration is cut short mid-step. Cache
	// hits are free, so a walk that has cached every friend list it can
	// reach never spends the cap (likely once the cap is at least |V|
	// calls); the run also stops at the spin cap, 50 samples per call it
	// can buy: 50 × min(cap, |V|).
	MaxBudget float64
	// BurnIn, Seed as in EstimateOptions.
	BurnIn int
	Seed   int64
}

// PrecisionResult reports an adaptive estimation run.
type PrecisionResult struct {
	// Estimate is the final NeighborExploration-HH estimate of F.
	Estimate float64
	// RelSE is the achieved relative standard error.
	RelSE float64
	// Reached reports whether the target precision was met within budget.
	// When false, Estimate still carries the best (partial) answer the
	// budget allowed: the run stopped at the MaxBudget cap, or at the spin
	// cap without spending it.
	Reached bool
	// Samples and APICalls account the whole run. APICalls covers the
	// sampling phase only: burn-in is paid once, before the budget is
	// armed, matching the paper's accounting.
	Samples  int
	APICalls int64
	// Rounds is how many doubling rounds were executed.
	Rounds int
}

// EstimateToPrecision runs NeighborExploration with a doubling schedule
// until the batch-means relative standard error of the estimate drops below
// the target or the budget cap is hit. This is the "how many API calls do I
// actually need?" workflow: the theoretical bounds of Theorems 4.1–4.5
// require knowing F and the T(u) profile in advance, which a crawler never
// does, while the empirical SE is computable online from the walk itself.
//
// Each round continues the same recorded walk (core.Recorder): burn-in is
// paid exactly once, every round's samples stay in the estimate, and a round
// merely extends the cumulative sample to double its size before
// re-aggregating the Eq. 11 estimator over everything recorded so far. The
// budget cap is enforced by the walk's meter, so the run returns a partial
// result with Reached == false — never an error, and never an overspend —
// when the cap lands mid-round, or when the sample count reaches the spin
// cap (see PrecisionOptions.MaxBudget) first.
func EstimateToPrecision(g *Graph, pair LabelPair, opts PrecisionOptions) (PrecisionResult, error) {
	var res PrecisionResult
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return res, fmt.Errorf("repro: graph has no edges to sample")
	}
	if opts.TargetRelSE <= 0 || opts.TargetRelSE >= 1 {
		return res, fmt.Errorf("repro: target relative SE must be in (0,1), got %g", opts.TargetRelSE)
	}
	maxBudget := opts.MaxBudget
	if maxBudget <= 0 {
		maxBudget = 0.25
	}
	maxCalls := int64(maxBudget * float64(g.NumNodes()))
	if maxCalls < 100 {
		maxCalls = 100
	}
	burn, err := resolveBurnIn(context.Background(), g, opts.BurnIn)
	if err != nil {
		return res, err
	}

	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		return res, err
	}
	rng := stats.NewSeedSequence(opts.Seed).NextRand()
	rec, err := core.NewRecorder(s, maxCalls, core.Options{BurnIn: burn, Rng: rng, Start: -1})
	if err != nil {
		return res, err
	}

	// Doubling schedule over the cumulative sample count: extend the one
	// recorded walk to k samples, re-aggregate, check the SE, double k.
	aggregate := func() error {
		prs, err := core.EstimateManyPairs(rec.Trajectory(), []LabelPair{pair})
		if err != nil {
			return err
		}
		r := prs[0].NE
		res.Estimate = r.HH
		res.Samples = r.Samples
		res.APICalls = rec.Calls()
		if r.HHStdErr > 0 && r.HH > 0 {
			res.RelSE = r.HHStdErr / r.HH
		} else {
			res.RelSE = math.Inf(1)
		}
		return nil
	}
	// Cache hits are free, so once the walk has cached every friend list it
	// stands on the meter never runs out; the spin cap budget-driven
	// recordings apply ends the doubling there.
	spinCap := walk.SpinCap(maxCalls, g.NumNodes())
	for k := 64; ; k = min(2*k, spinCap) {
		res.Rounds++
		_, exhausted, err := rec.Extend(k - rec.Samples())
		if err != nil {
			return res, err
		}
		if err := aggregate(); err != nil {
			return res, err
		}
		if res.RelSE <= opts.TargetRelSE {
			res.Reached = true
			return res, nil
		}
		if exhausted || rec.Samples() >= spinCap {
			return res, nil // budget or spin cap hit; partial result, Reached stays false
		}
	}
}
