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
	// runs one walker on Rng; W >= 2 draws each walker from a stream rooted
	// at Seed (see core.Options.Walkers).
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
	// estimates; zero when one walker produced the estimate.
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
	walkers := max(opts.Walkers, 1)
	tallies := make([]tally, min(walkers, k)) // RunFleet clamps the fleet to k
	calls, err := walk.RunFleet(walk.FleetConfig[graph.Edge]{
		Session:      s,
		Ctx:          opts.Ctx,
		Rng:          opts.Rng,
		Seed:         opts.Seed,
		Walkers:      walkers,
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
			return tallies[r.ID].sample(r.Ctx, linegraph.View{S: r.Meter}, r.W, pair, method, r.MaxIters(), r.Budget)
		},
	})
	if err != nil {
		return res, err
	}

	// Pool the walkers' draws; their separate estimates yield the
	// between-walker interval of a multi-walker run.
	numEdges := float64(s.NumEdges())
	pooled := &estimate.Reweighted{}
	perEst := estimate.NewWalkerSeries(len(calls))
	for i, c := range calls {
		t := &tallies[i]
		res.Samples += t.samples
		res.TargetHits += t.targetHits
		res.APICalls += c
		pooled.Merge(&t.rw)
		perEst.Add(t.samples, t.rw.Ratio()*numEdges)
	}
	res.Estimate = pooled.Ratio() * numEdges
	res.CI = perEst.CI()
	res.Walkers = len(calls)
	return res, nil
}

// tally is one line-graph walker's contribution to an estimate.
type tally struct {
	rw         estimate.Reweighted
	samples    int
	targetHits int
}

// sample is the package's one sampling loop, run by every walker of the
// fleet: it takes up to maxIters steps of w and stops before a step once the
// walker's bill (view.S.Calls) reaches a positive budget. Cancellation is
// polled on the Done channel, as in walk.BurninCtx.
func (t *tally) sample(ctx context.Context, view linegraph.View, w walk.Walker[graph.Edge], pair graph.LabelPair, method Method, maxIters int, budget int64) error {
	done := ctx.Done()
	for i := 0; i < maxIters; i++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if budget > 0 && view.S.Calls() >= budget {
			return nil
		}
		e, err := w.Step()
		if err != nil {
			return fmt.Errorf("baseline: %s step %d: %w", method, i, err)
		}
		weight, err := w.StationaryWeight(e)
		if err != nil {
			return err
		}
		t.samples++
		indicator := 0.0
		if view.IsTarget(e, pair) {
			indicator = 1
			t.targetHits++
		}
		if err := t.rw.Add(indicator, weight); err != nil {
			return err
		}
	}
	return nil
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
