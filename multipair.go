package repro

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/osn"
	"repro/internal/stats"
)

// MultiPairOptions configures EstimateManyPairs.
type MultiPairOptions struct {
	// Budget is the shared walk's sample size as a fraction of |V| (the
	// paper's axis); 0 means 0.05.
	Budget float64
	// Samples overrides Budget with an absolute sample count when positive.
	Samples int
	// BurnIn is the walk burn-in in steps; 0 means measure the mixing time
	// T(1e-3) first (Section 5.1).
	BurnIn int
	// Seed drives all randomness.
	Seed int64
	// Walkers is the number of concurrent walkers recording the shared
	// trajectory (see EstimateOptions.Walkers); 0 or 1 records serially.
	Walkers int
	// Ctx cancels the recording in flight; nil means context.Background().
	Ctx context.Context
}

// PairResult is one pair's slice of a multi-pair estimate: every estimator
// of both algorithms, replayed from the shared trajectory. NS holds
// NeighborSample's HH and HT estimates and NE NeighborExploration's HH, HT
// and RW, each with its between-walker intervals (multi-walker recordings)
// and HH's standard error; NS.TargetHits is how many sampled edges matched
// the pair. The APICalls fields carry the shared walk's one-time cost.
type PairResult = core.PairEstimates

// MultiPairResult reports one EstimateManyPairs run: P pair answers from one
// walk's API spend.
type MultiPairResult struct {
	// Pairs holds one result per queried pair, in query order.
	Pairs []PairResult
	// APICalls is the total charged API calls — paid once, shared by every
	// pair (a per-pair run would have paid ~len(Pairs)× this).
	APICalls int64
	// Samples is the shared walk's sample count.
	Samples int
	// BurnIn is the burn-in that was applied.
	BurnIn int
	// Walkers is the concurrent walker count the recording ran with.
	Walkers int
}

// recordShared resolves the sample count and burn-in from opts and records
// one shared trajectory — the recording step behind EstimateManyPairs,
// EstimateBatch and RecordTrajectory (all derive the walk identically, so a
// batch's trajectory is the exact walk EstimateManyPairs would record for
// the same options). The trajectory's BurnIn is the burn-in applied.
func recordShared(g *Graph, opts MultiPairOptions) (*core.Trajectory, error) {
	k, burn, err := resolveWalkPlan(opts.Ctx, g, opts.Budget, opts.Samples, opts.BurnIn)
	if err != nil {
		return nil, err
	}
	return record(opts.Ctx, g, k, burn, opts.Walkers, opts.Seed, "multipair")
}

// record runs one burned-in recording of k samples over a fresh session —
// the recording step of every facade entry point that replays a registered
// task. A serial walk draws from the first stream of NewSeedSequence(seed);
// a fleet of walkers roots its per-walker streams at Derive(seed, tag), so
// each entry point's tag keeps its fleet streams its own.
func record(ctx context.Context, g *Graph, k, burn, walkers int, seed int64, tag string) (*core.Trajectory, error) {
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		return nil, err
	}
	return core.RecordTrajectory(s, k, core.Options{
		BurnIn:  burn,
		Rng:     stats.NewSeedSequence(seed).NextRand(),
		Start:   -1,
		Walkers: walkers,
		Seed:    stats.Derive(seed, tag),
		Ctx:     ctx,
	})
}

// EstimateManyPairs estimates F for every given label pair from ONE shared
// random walk: the walk is recorded once (with burn-in paid once) and
// replayed through the paper's HH/HT/RW aggregators per pair. Because the
// estimators weigh samples by label-pair membership only at aggregation
// time, and label reads are free in the access model, P pairs cost the API
// budget of a single-pair estimate instead of P× it.
func EstimateManyPairs(g *Graph, pairs []LabelPair, opts MultiPairOptions) (*MultiPairResult, error) {
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return nil, fmt.Errorf("repro: graph has no edges to sample")
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("repro: EstimateManyPairs needs at least one label pair")
	}
	traj, err := recordShared(g, opts)
	if err != nil {
		return nil, err
	}
	prs, err := core.EstimateManyPairs(traj, pairs)
	if err != nil {
		return nil, err
	}
	return &MultiPairResult{
		Pairs:    prs,
		APICalls: traj.APICalls,
		Samples:  traj.Samples(),
		BurnIn:   traj.BurnIn,
		Walkers:  traj.Walkers,
	}, nil
}
