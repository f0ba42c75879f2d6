package repro

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/walk"
)

// Method selects the estimation algorithm for EstimateTargetEdges.
type Method string

// The available methods. Auto picks between the paper's two algorithms with
// a pilot walk, applying the paper's finding 4: NeighborSample when target
// edges are abundant, NeighborExploration when they are rare.
const (
	Auto                  Method = "auto"
	NeighborSampleHH      Method = core.NeighborSampleHH
	NeighborSampleHT      Method = core.NeighborSampleHT
	NeighborExplorationHH Method = core.NeighborExplorationHH
	NeighborExplorationHT Method = core.NeighborExplorationHT
	NeighborExplorationRW Method = core.NeighborExplorationRW
	BaselineMethodRW      Method = "EX-RW"
	BaselineMethodMHRW    Method = "EX-MHRW"
	BaselineMethodMDRW    Method = "EX-MDRW"
	BaselineMethodRCMH    Method = "EX-RCMH"
	BaselineMethodGMD     Method = "EX-GMD"
)

// Methods returns every supported method name.
func Methods() []Method {
	return []Method{
		Auto,
		NeighborSampleHH, NeighborSampleHT,
		NeighborExplorationHH, NeighborExplorationHT, NeighborExplorationRW,
		BaselineMethodRW, BaselineMethodMHRW, BaselineMethodMDRW,
		BaselineMethodRCMH, BaselineMethodGMD,
	}
}

// EstimateOptions configures EstimateTargetEdges.
type EstimateOptions struct {
	// Method selects the algorithm; empty means Auto.
	Method Method
	// Budget is the sample size as a fraction of |V| (the paper's axis);
	// 0 means 0.05, the paper's largest evaluated budget.
	Budget float64
	// Samples overrides Budget with an absolute sample count when positive.
	Samples int
	// BurnIn is the walk burn-in in steps; 0 means measure the mixing time
	// T(1e-3) first (Section 5.1).
	BurnIn int
	// Seed drives all randomness.
	Seed int64
	// Alpha is the EX-RCMH control parameter (default 0.15).
	Alpha float64
	// Delta is the EX-GMD control parameter (default 0.5).
	Delta float64
	// Walkers is the number of concurrent walkers sampling inside the
	// estimate, all metered against one shared session. 0 or 1 runs the
	// paper's single walk on the Seed's stream; W >= 2 splits the budget
	// into per-walker shares, scales across cores, and reports a
	// variance-based confidence interval in Result.CI. Results are
	// reproducible for a fixed (Seed, Walkers) regardless of scheduling.
	Walkers int
	// Ctx cancels an estimate in flight (every walk loop checks it); nil
	// means context.Background().
	Ctx context.Context
}

// CI is a variance-based confidence interval computed from the per-walker
// estimates of a multi-walker run (alias of the internal estimator type).
type CI = estimate.CI

// Result reports one estimation run.
type Result struct {
	// Estimate is the estimated number of target edges F̂.
	Estimate float64
	// Method is the algorithm that produced the estimate (resolved from
	// Auto when applicable).
	Method Method
	// Samples is the number of walk samples used.
	Samples int
	// APICalls is the number of charged API calls during sampling. For a
	// multi-walker run this sums the per-walker bills (each walker pays for
	// its own calls; the shared response cache may make actual upstream
	// fetches fewer).
	APICalls int64
	// BurnIn is the burn-in that was applied.
	BurnIn int
	// Walkers is the concurrent walker count the estimate ran with.
	Walkers int
	// CI is a variance-based interval from the spread of the per-walker
	// estimates (centered on their mean; the pooled Estimate can fall
	// slightly outside it — see estimate.CI). Valid() is false on serial
	// (Walkers <= 1) runs, which have a single walker and therefore no
	// between-walker variance to measure.
	CI CI
}

// EstimateResult is an alias for Result, the outcome of
// EstimateTargetEdges.
type EstimateResult = Result

// EstimateTargetEdges estimates the number of target edges of g for pair
// using only restricted API access internally. It is the library's
// high-level entry point: it builds a session, resolves burn-in (measuring
// the mixing time if not given), runs the chosen method and returns the
// estimate with its API cost.
func EstimateTargetEdges(g *Graph, pair LabelPair, opts EstimateOptions) (Result, error) {
	var res Result
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return res, fmt.Errorf("repro: graph has no edges to sample")
	}
	method := opts.Method
	if method == "" {
		method = Auto
	}
	k, burn, err := resolveWalkPlan(opts.Ctx, g, opts.Budget, opts.Samples, opts.BurnIn)
	if err != nil {
		return res, err
	}
	res.BurnIn = burn
	res.Samples = k

	seq := stats.NewSeedSequence(opts.Seed)
	rng := seq.NextRand()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		return res, err
	}

	if method == Auto {
		method = autoSelect(opts.Ctx, s, pair, k, burn, rng)
		// Fresh session so the pilot's crawl cache does not subsidize the
		// main run's accounting.
		s, err = osn.NewSession(g, osn.Config{})
		if err != nil {
			return res, err
		}
	}
	res.Method = method

	copts := core.Options{
		BurnIn:  burn,
		Rng:     rng,
		Start:   -1,
		Walkers: opts.Walkers,
		Seed:    stats.Derive(opts.Seed, "multiwalk"),
		Ctx:     opts.Ctx,
	}
	switch method {
	case NeighborSampleHH, NeighborSampleHT:
		r, err := core.NeighborSample(s, pair, k, copts)
		if err != nil {
			return res, err
		}
		res.APICalls = r.APICalls
		res.Walkers = r.Walkers
		if method == NeighborSampleHH {
			res.Estimate = r.HH
			res.CI = r.HHCI
		} else {
			res.Estimate = r.HT
			res.CI = r.HTCI
		}
	case NeighborExplorationHH, NeighborExplorationHT, NeighborExplorationRW:
		r, err := core.NeighborExploration(s, pair, k, copts)
		if err != nil {
			return res, err
		}
		res.APICalls = r.APICalls
		res.Walkers = r.Walkers
		switch method {
		case NeighborExplorationHH:
			res.Estimate = r.HH
			res.CI = r.HHCI
		case NeighborExplorationHT:
			res.Estimate = r.HT
			res.CI = r.HTCI
		default:
			res.Estimate = r.RW
			res.CI = r.RWCI
		}
	case BaselineMethodRW, BaselineMethodMHRW, BaselineMethodMDRW, BaselineMethodRCMH, BaselineMethodGMD:
		alpha := opts.Alpha
		if alpha == 0 {
			alpha = 0.15
		}
		delta := opts.Delta
		if delta == 0 {
			delta = 0.5
		}
		m := baseline.Method(string(method)[3:]) // strip "EX-"
		r, err := baseline.Estimate(s, pair, m, k, baseline.Options{
			BurnIn:     burn,
			Rng:        rng,
			Alpha:      alpha,
			Delta:      delta,
			MaxDegreeG: exact.MaxDegree(g),
			Walkers:    opts.Walkers,
			Seed:       stats.Derive(opts.Seed, "multiwalk/baseline"),
			Ctx:        opts.Ctx,
		})
		if err != nil {
			return res, err
		}
		res.APICalls = r.APICalls
		res.Walkers = r.Walkers
		res.Estimate = r.Estimate
		res.CI = r.CI
	default:
		return res, fmt.Errorf("repro: unknown method %q (want one of %v)", method, Methods())
	}
	return res, nil
}

// PairEstimate is one row of an estimated label-pair census.
type PairEstimate = core.PairEstimate

// DiscoverLabelPairs estimates the counts of every label pair from one
// random walk — the exploration step before committing a budget to a
// specific pair. budget is the sample size as a fraction of |V| (0 means
// 5%). Pairs are returned in descending estimated-count order; pairs the
// walk never hit are absent (they are exactly the rare pairs that need a
// dedicated NeighborExploration run).
func DiscoverLabelPairs(g *Graph, budget float64, seed int64) ([]PairEstimate, error) {
	return DiscoverLabelPairsOpts(g, CensusOptions{Budget: budget, Seed: seed})
}

// CensusOptions configures DiscoverLabelPairsOpts.
type CensusOptions struct {
	// Budget is the sample size as a fraction of |V|; 0 means 5%.
	Budget float64
	// Seed drives all randomness.
	Seed int64
	// Walkers is the number of concurrent walkers splitting the census walk
	// (see EstimateOptions.Walkers); 0 or 1 runs the paper's single walk.
	Walkers int
	// Ctx cancels the census in flight; nil means context.Background().
	Ctx context.Context
}

// DiscoverLabelPairsOpts is DiscoverLabelPairs with multi-walker and
// cancellation control.
func DiscoverLabelPairsOpts(g *Graph, opts CensusOptions) ([]PairEstimate, error) {
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return nil, fmt.Errorf("repro: graph has no edges to sample")
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = 0.05
	}
	k := int(budget * float64(g.NumNodes()))
	if k < 10 {
		k = 10
	}
	burn, err := walk.BurnIn(opts.Ctx, g)
	if err != nil {
		return nil, err
	}
	traj, err := record(opts.Ctx, g, k, burn, opts.Walkers, opts.Seed, "census/multiwalk")
	if err != nil {
		return nil, err
	}
	out, err := core.RunTask(traj, "census", core.TaskParams{})
	if err != nil {
		return nil, err
	}
	return out.(core.CensusResult).Pairs, nil
}

// autoRareThreshold is the relative target-edge frequency below which Auto
// prefers NeighborExploration. The paper's Figures 1–2 place the crossover
// where targets stop being rare; 2% of |E| is a conservative reading.
const autoRareThreshold = 0.02

// autoSelect runs a short NeighborExploration pilot (a tenth of the budget)
// to gauge F/|E| and picks the method the paper's findings 4–5 recommend:
// NeighborSample-HT for abundant targets, NeighborExploration-HH for rare
// ones. The pilot records under ctx; a cancelled pilot falls back to the
// default, whose run then fails on the same ctx.
func autoSelect(ctx context.Context, s *osn.Session, pair graph.LabelPair, k, burn int, rng *rand.Rand) Method {
	pilotK := k / 10
	if pilotK < 20 {
		pilotK = 20
	}
	r, err := core.NeighborExploration(s, pair, pilotK, core.Options{BurnIn: burn, Rng: rng, Start: -1, Ctx: ctx})
	if err != nil {
		return NeighborExplorationHH // cheap safe default
	}
	frac := r.HH / float64(s.NumEdges())
	if frac > autoRareThreshold {
		return NeighborSampleHT
	}
	return NeighborExplorationHH
}
