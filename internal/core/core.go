// Package core implements the paper's primary contribution: the
// NeighborSample and NeighborExploration algorithms (Section 4) for
// estimating F, the number of edges whose endpoints carry a given pair of
// target labels, over a graph reachable only through neighbor-list API
// calls.
//
// Both algorithms run a single simple random walk (the paper's optimized
// implementation): burn-in erases the start bias, then the next k steps form
// the sample. One walk feeds every estimator that the sampling process
// admits simultaneously — HH and HT for NeighborSample; HH, HT and RW for
// NeighborExploration — so experiments pay the API cost once per walk.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/walk"
)

// CostModel sets how NeighborExploration's neighborhood exploration is
// billed against the API budget. The paper's Algorithm 2 leaves this
// implicit; real deployments differ in whether the friend-list response
// already carries the friends' profile labels.
type CostModel int

const (
	// ExploreFree charges nothing for exploration: the friend-list response
	// carries each friend's labels (the literal reading of Algorithm 2,
	// where a walk of k steps is k API calls).
	ExploreFree CostModel = iota
	// ExplorePerNode charges one extra API call the first time a node's
	// neighborhood is explored (one profile-page fetch for the batch).
	ExplorePerNode
	// ExplorePerNeighbor charges one API call per friend whose labels the
	// exploration reads (a profile fetch per friend — the most expensive
	// deployment): d(u) calls the first time a walker explores a node u
	// carrying a target label, friends it has seen before included.
	ExplorePerNeighbor
)

// WalkKind selects the Markov chain driving the sampling processes.
type WalkKind int

const (
	// WalkSimple is the paper's simple random walk.
	WalkSimple WalkKind = iota
	// WalkNonBacktracking is the non-backtracking walk of Lee et al. [14]
	// (cited in the paper's related work as more efficient than the simple
	// walk). Its stationary node distribution is still ∝ degree and its
	// edge process is still uniform over edges, so every estimator in this
	// package stays valid; the chain simply mixes faster.
	WalkNonBacktracking
)

// Options configures one sampling run.
type Options struct {
	// BurnIn is the number of walk steps discarded before sampling begins —
	// set it to (at least) the graph's mixing time, per Section 5.1.
	BurnIn int
	// ThinGap, when positive, retains only every ThinGap-th sample for the
	// Horvitz–Thompson estimator, the independence heuristic of [11] with
	// r = 2.5%·k. The paper's reported HT accuracy is only achievable using
	// every sample, so the default 0 means "use all"; the HT-thinning study
	// of `reproduce -ablations` (experiment.AblationReport) sweeps this knob.
	ThinGap int
	// Rng drives all random choices. Required.
	Rng *rand.Rand
	// Start, when non-negative, fixes the walk's start node; leave negative
	// for a uniformly random start (burn-in erases the difference).
	Start graph.Node
	// Cost selects the exploration billing model for NeighborExploration;
	// the zero value is ExploreFree.
	Cost CostModel
	// BudgetDriven, when true, interprets k as an API-call budget rather
	// than a sample count: the walk keeps sampling until k calls have been
	// charged (the paper's evaluation axis, "x%·|V| API calls"). When
	// false, k is the number of samples, as in Algorithms 1 and 2.
	BudgetDriven bool
	// Walk selects the sampling chain; the zero value is the paper's
	// simple random walk.
	Walk WalkKind
	// Walkers is the number of concurrent walkers sampling inside ONE
	// estimate, all metered against the same shared session. 0 or 1 runs
	// the original serial path (bit-identical for a fixed Rng); W >= 2
	// splits the budget (or sample count) into per-walker quotas and merges
	// the per-walker estimates, reporting a variance-based confidence
	// interval alongside. Requires Seed for the per-walker RNG streams.
	Walkers int
	// Seed roots the per-walker RNG streams when Walkers >= 2: walker i
	// draws from stats.Derive(Seed, "walker/i"), made distinct across the
	// fleet (see walk.FleetRun.Rng), so multi-walker results are
	// reproducible regardless of goroutine scheduling.
	Seed int64
	// Ctx cancels a run in flight: every sampling loop and burn-in checks
	// it. nil means context.Background().
	Ctx context.Context
}

// ctx returns the configured context, defaulting to Background.
func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// DefaultOptions returns Options with a random start and the given burn-in.
func DefaultOptions(burnIn int, rng *rand.Rand) Options {
	return Options{BurnIn: burnIn, Rng: rng, Start: -1}
}

func (o *Options) validate() error {
	if o.Rng == nil {
		return fmt.Errorf("core: Options.Rng is required")
	}
	if o.BurnIn < 0 {
		return fmt.Errorf("core: negative burn-in %d", o.BurnIn)
	}
	if o.ThinGap < 0 {
		return fmt.Errorf("core: negative thinning gap %d", o.ThinGap)
	}
	if o.Walkers < 0 {
		return fmt.Errorf("core: negative walker count %d", o.Walkers)
	}
	return nil
}

// startNode resolves the configured or random start node, rejecting
// isolated nodes so the walk can always move. rng is the stream of the
// walker being started.
func startNode(s osn.API, start graph.Node, rng *rand.Rand) (graph.Node, error) {
	if start >= 0 {
		return start, nil
	}
	for attempts := 0; attempts < 1000; attempts++ {
		u := s.RandomNode(rng)
		d, err := s.Degree(u)
		if err != nil {
			return 0, err
		}
		if d > 0 {
			return u, nil
		}
	}
	return 0, fmt.Errorf("core: could not find a non-isolated start node")
}

// batchSE computes a batch-means standard error over per-sample estimator
// terms, returning 0 when the sample is too small to batch reliably.
func batchSE(terms []float64) float64 {
	const batches = 20
	if len(terms) < 2*batches {
		return 0
	}
	se, err := stats.BatchMeansSE(terms, batches)
	if err != nil {
		return 0
	}
	return se
}

// newWalk builds the configured walk kind over any access handle.
func newWalk(s osn.API, o Options, start graph.Node, rng *rand.Rand) (walk.Walker[graph.Node], error) {
	switch o.Walk {
	case WalkSimple:
		return walk.NewSimple[graph.Node](walk.NodeSpace{S: s}, start, rng), nil
	case WalkNonBacktracking:
		return walk.NewNonBacktracking[graph.Node](walk.NodeSpace{S: s}, start, rng), nil
	default:
		return nil, fmt.Errorf("core: unknown walk kind %d", o.Walk)
	}
}

// newBurnedInWalk builds the configured walk over the session and runs
// burn-in. Accounting is reset afterwards so reported API calls cover only
// the sampling phase, matching how the paper charges sample size
// ("the nodes or edges encountered in the random walk before the mixing
// time are not included in the sample set").
func newBurnedInWalk(s *osn.Session, o Options) (walk.Walker[graph.Node], error) {
	start, err := startNode(s, o.Start, o.Rng)
	if err != nil {
		return nil, err
	}
	w, err := newWalk(s, o, start, o.Rng)
	if err != nil {
		return nil, err
	}
	if err := walk.BurninCtx[graph.Node](o.ctx(), w, o.BurnIn); err != nil {
		return nil, fmt.Errorf("core: burn-in: %w", err)
	}
	s.ResetAccounting()
	return w, nil
}
