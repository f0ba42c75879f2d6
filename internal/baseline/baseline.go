// Package baseline implements the comparison algorithms of the paper's
// evaluation (Section 5.1, "Adaptations of Existing Algorithms"): the five
// random-walk node-share estimators reviewed or proposed by Li et al. [16]
// — Re-weighted (RW), Metropolis–Hastings (MHRW), Maximum-Degree (MDRW),
// Rejection-Controlled MH (RCMH, parameter α) and General Maximum-Degree
// (GMD, parameter δ) — run over the implicit line graph G', where counting
// target nodes of G' is counting target edges of G.
//
// Each estimator measures the stationary-weighted share of target states
// visited by its walk and multiplies by |H| = |E|, the known size of G'.
package baseline

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/linegraph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// Method names one of the five adapted algorithms, using the paper's
// abbreviations (Table 2) without the EX- prefix.
type Method string

// The five baseline methods.
const (
	RW   Method = "RW"   // simple walk + re-weighted estimator
	MHRW Method = "MHRW" // Metropolis–Hastings walk (uniform stationary)
	MDRW Method = "MDRW" // maximum-degree walk (uniform stationary)
	RCMH Method = "RCMH" // rejection-controlled MH, parameter alpha
	GMD  Method = "GMD"  // general maximum-degree, parameter delta
)

// Methods returns all baseline methods in the paper's order.
func Methods() []Method { return []Method{MDRW, MHRW, RW, RCMH, GMD} }

// Options configures a baseline run.
type Options struct {
	// BurnIn is the number of line-graph walk steps discarded before
	// sampling.
	BurnIn int
	// Rng drives all random choices. Required.
	Rng *rand.Rand
	// Alpha is the RCMH control parameter; Li et al. suggest [0, 0.3].
	Alpha float64
	// Delta is the GMD control parameter; Li et al. suggest [0.3, 0.7].
	Delta float64
	// MaxDegreeG upper-bounds the maximum degree of G; required by MDRW and
	// GMD (prior knowledge, like |V| and |E|).
	MaxDegreeG int
	// BudgetDriven, when true, interprets k as an API-call budget rather
	// than a step count, so baselines are charged in the same currency as
	// the proposed algorithms (a line-graph transition touches two
	// endpoints' neighbor lists).
	BudgetDriven bool
	// Walkers is the number of concurrent line-graph walkers inside one
	// estimate, sharing the session's budget and response cache. 0 or 1
	// runs the serial path; W >= 2 requires Seed.
	Walkers int
	// Seed roots the per-walker RNG streams when Walkers >= 2 (see
	// core.Options.Seed).
	Seed int64
	// Ctx cancels a run in flight; nil means context.Background().
	Ctx context.Context
}

// Result is the outcome of one baseline run.
type Result struct {
	// Estimate is the estimated number of target edges of G.
	Estimate float64
	// Samples is the number of retained walk states (k).
	Samples int
	// TargetHits is how many retained states were target edges.
	TargetHits int
	// APICalls is the number of charged API calls during sampling (summed
	// per-walker bills for a multi-walker run).
	APICalls int64
	// Walkers is how many concurrent walkers produced the estimate.
	Walkers int
	// CI is a variance-based confidence interval over the per-walker
	// estimates; zero (Valid() == false) on serial runs.
	CI estimate.CI
}

// Estimate runs the chosen baseline for k line-graph walk steps and returns
// the target-edge count estimate |E|·(weighted share of target states).
func Estimate(s *osn.Session, pair graph.LabelPair, method Method, k int, opts Options) (Result, error) {
	var res Result
	if opts.Rng == nil {
		return res, fmt.Errorf("baseline: Options.Rng is required")
	}
	if k <= 0 {
		return res, fmt.Errorf("baseline: need k > 0, got %d", k)
	}
	if opts.BurnIn < 0 {
		return res, fmt.Errorf("baseline: negative burn-in %d", opts.BurnIn)
	}
	if opts.Walkers > 1 {
		return estimateParallel(s, pair, method, k, opts)
	}

	ctx := opts.ctx()
	view := linegraph.View{S: s}
	start, err := view.RandomEdge(opts.Rng)
	if err != nil {
		return res, err
	}
	w, err := newWalker(view, start, method, opts, opts.Rng)
	if err != nil {
		return res, err
	}
	if err := walk.BurninCtx[graph.Edge](ctx, w, opts.BurnIn); err != nil {
		return res, fmt.Errorf("baseline: %s burn-in: %w", method, err)
	}
	s.ResetAccounting()

	rw := &estimate.Reweighted{}
	maxIters := k
	if opts.BudgetDriven {
		maxIters = 50 * k
	}
	for i := 0; i < maxIters; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if opts.BudgetDriven && s.Calls() >= int64(k) {
			break
		}
		e, err := w.Step()
		if err != nil {
			return res, fmt.Errorf("baseline: %s step %d: %w", method, i, err)
		}
		res.Samples++
		indicator := 0.0
		if view.IsTarget(e, pair) {
			indicator = 1
			res.TargetHits++
		}
		weight, err := w.StationaryWeight(e)
		if err != nil {
			return res, err
		}
		if err := rw.Add(indicator, weight); err != nil {
			return res, err
		}
	}
	res.Estimate = rw.Ratio() * float64(s.NumEdges())
	res.APICalls = s.Calls()
	res.Walkers = 1
	return res, nil
}

// walkerTally is one line-graph walker's contribution to a parallel
// baseline estimate.
type walkerTally struct {
	rw         estimate.Reweighted
	samples    int
	targetHits int
}

// estimateParallel runs the chosen baseline with W concurrent line-graph
// walkers over one shared session, mirroring the multi-walker engine of the
// core algorithms: per-walker RNG streams and budget shares make the merged
// estimate deterministic for a fixed seed, and the per-walker ratios yield
// a variance-based confidence interval.
func estimateParallel(s *osn.Session, pair graph.LabelPair, method Method, k int, opts Options) (Result, error) {
	var res Result
	W := opts.Walkers
	if W > k {
		W = k
	}
	tallies := make([]walkerTally, W)

	cfg := walk.FleetConfig[graph.Edge]{
		Session:      s,
		Ctx:          opts.Ctx,
		Seed:         opts.Seed,
		Walkers:      W,
		K:            k,
		BudgetDriven: opts.BudgetDriven,
		BurnIn:       opts.BurnIn,
		NewWalker: func(r *walk.FleetRun[graph.Edge]) (walk.Walker[graph.Edge], error) {
			view := linegraph.View{S: r.Meter}
			start, err := view.RandomEdge(r.Rng)
			if err != nil {
				return nil, err
			}
			return newWalker(view, start, method, opts, r.Rng)
		},
		Sample: func(r *walk.FleetRun[graph.Edge]) error {
			view := linegraph.View{S: r.Meter}
			tally := &tallies[r.ID]
			maxIters := r.MaxIters()
			for i := 0; i < maxIters; i++ {
				if err := r.Ctx.Err(); err != nil {
					return err
				}
				if r.Done(tally.samples) {
					break
				}
				e, err := r.W.Step()
				if err != nil {
					return fmt.Errorf("baseline: %s step %d: %w", method, i, err)
				}
				weight, err := r.W.StationaryWeight(e)
				if err != nil {
					return err
				}
				tally.samples++
				indicator := 0.0
				if view.IsTarget(e, pair) {
					indicator = 1
					tally.targetHits++
				}
				if err := tally.rw.Add(indicator, weight); err != nil {
					return err
				}
			}
			return nil
		},
	}
	calls, err := walk.RunFleet(cfg)
	if err != nil {
		return res, err
	}

	numEdges := float64(s.NumEdges())
	pooled := &estimate.Reweighted{}
	perEst := make([]float64, 0, W)
	for i := range tallies {
		t := &tallies[i]
		res.Samples += t.samples
		res.TargetHits += t.targetHits
		pooled.Merge(&t.rw)
		if t.samples > 0 {
			perEst = append(perEst, t.rw.Ratio()*numEdges)
		}
	}
	res.Estimate = pooled.Ratio() * numEdges
	res.CI = estimate.CIFromEstimates(perEst, 0.95)
	for _, c := range calls {
		res.APICalls += c
	}
	res.Walkers = W
	return res, nil
}

// ctx returns the configured context, defaulting to Background.
func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// newWalker builds the line-graph walker for the method, driven by rng.
func newWalker(view linegraph.View, start graph.Edge, method Method, opts Options, rng *rand.Rand) (walk.Walker[graph.Edge], error) {
	var sp walk.Space[graph.Edge] = view
	switch method {
	case RW:
		return walk.NewSimple[graph.Edge](sp, start, rng), nil
	case MHRW:
		return walk.NewMetropolisHastings[graph.Edge](sp, start, rng), nil
	case MDRW:
		if opts.MaxDegreeG <= 0 {
			return nil, fmt.Errorf("baseline: MDRW requires MaxDegreeG > 0")
		}
		return walk.NewMaxDegree[graph.Edge](sp, start, linegraph.MaxDegree(opts.MaxDegreeG), rng)
	case RCMH:
		return walk.NewRejectionControlledMH[graph.Edge](sp, start, opts.Alpha, rng)
	case GMD:
		if opts.MaxDegreeG <= 0 {
			return nil, fmt.Errorf("baseline: GMD requires MaxDegreeG > 0")
		}
		if opts.Delta == 0 {
			return nil, fmt.Errorf("baseline: GMD requires Delta in (0,1]")
		}
		return walk.NewGeneralMaxDegree[graph.Edge](sp, start, linegraph.MaxDegree(opts.MaxDegreeG), opts.Delta, rng)
	default:
		return nil, fmt.Errorf("baseline: unknown method %q (want one of %v)", method, Methods())
	}
}
