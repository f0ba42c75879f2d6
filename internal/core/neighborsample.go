package core

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// NeighborSampleResult carries the outputs of one NeighborSample run
// (Algorithm 1 with the single-walk implementation of Section 4.1.2).
type NeighborSampleResult struct {
	// HH is the Hansen–Hurwitz estimate of F (Eq. 2).
	HH float64
	// HHStdErr is a standard error for HH, letting a caller attach an
	// error bar without knowing the ground truth. On the serial path it is
	// a batch-means SE accounting for the serial correlation of walk
	// samples (zero when the sample is too small to batch, fewer than 40
	// draws); on a multi-walker run it is the between-walker SE
	// (HHCI.StdErr), a noisier statistic at small walker counts.
	HHStdErr float64
	// HT is the Horvitz–Thompson estimate of F (Eq. 3).
	HT float64
	// Samples is the number of edges sampled.
	Samples int
	// DistinctEdges is the number of distinct edges feeding the HT
	// estimator.
	DistinctEdges int
	// TargetHits is how many sampled edges were target edges.
	TargetHits int
	// APICalls is the number of charged API calls in the sampling phase.
	// For a multi-walker run this is the sum of the per-walker bills (see
	// osn.Meter for why that is the deterministic quantity).
	APICalls int64
	// Walkers is how many concurrent walkers produced the sample (1 for the
	// serial path).
	Walkers int
	// HHCI and HTCI are variance-based confidence intervals computed from
	// the per-walker estimates. Zero (Valid() == false) on serial runs.
	HHCI CI
	HTCI CI
}

// NeighborSample samples edges via a single simple random walk and returns
// the HH and HT estimates of F for the target pair. Each post-burn-in walk
// step traverses one edge, and that edge is a uniform sample from E
// (Section 4.1.2): the walk is at u with probability d(u)/2|E| and picks a
// specific neighbor with probability 1/d(u), and the edge can be entered
// from either side, so each edge has probability 2·(1/2|E|) = 1/|E|.
//
// k is the number of samples, or the API-call budget when
// opts.BudgetDriven is set (the paper's evaluation axis). The walk is a
// recording replayed for this one pair. The recording buys each arrived-at
// node's friend list ahead of the step that leaves it, but NeighborSample's
// budget checks and APICalls leave out the list bought for a walker's
// current arrival, so the samples and the bill are those of a walk that
// fetches a list only to leave a node.
func NeighborSample(s *osn.Session, pair graph.LabelPair, k int, opts Options) (NeighborSampleResult, error) {
	pe, err := estimatePair(s, pair, k, opts, billing{lookAhead: true}, onlyNS)
	return pe.NS, err
}

// NeighborSampleIndependent is the textbook Algorithm 1: k independent
// random-walk restarts, each burning in separately before drawing one edge.
// It exists to quantify (in the ablation bench) how much API cost the
// paper's single-walk implementation saves; estimates are identical in
// distribution. k is always a sample count here.
func NeighborSampleIndependent(s *osn.Session, pair graph.LabelPair, k int, opts Options) (NeighborSampleResult, error) {
	var res NeighborSampleResult
	if err := opts.validate(); err != nil {
		return res, err
	}
	if k <= 0 {
		return res, fmt.Errorf("core: NeighborSampleIndependent needs k > 0, got %d", k)
	}
	numEdges := float64(s.NumEdges())
	hh := &estimate.HansenHurwitz{}
	ht := estimate.NewHorvitzThompson[graph.Edge]()
	incl := estimate.InclusionProbability(1/numEdges, k)
	s.ResetAccounting()
	ctx := opts.ctx()
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// Fresh walk with full burn-in every iteration; unlike the
		// single-walk variant, the burn-in cost is charged, because paying
		// it k times over is exactly what this variant exists to measure.
		start, err := startNode(s, opts.Start, opts.Rng)
		if err != nil {
			return res, err
		}
		w := walk.NewSimple[graph.Node](walk.NodeSpace{S: s}, start, opts.Rng)
		if err := walk.BurninCtx[graph.Node](ctx, w, opts.BurnIn); err != nil {
			return res, fmt.Errorf("core: NeighborSampleIndependent burn-in %d: %w", i, err)
		}
		u := w.Current()
		v, err := w.Step() // one more step: uniform neighbor of u
		if err != nil {
			return res, fmt.Errorf("core: NeighborSampleIndependent draw %d: %w", i, err)
		}
		e := graph.Edge{U: u, V: v}.Canonical()
		res.Samples++
		indicator := 0.0
		if s.HasLabel(e.U, pair.T1) && s.HasLabel(e.V, pair.T2) ||
			s.HasLabel(e.U, pair.T2) && s.HasLabel(e.V, pair.T1) {
			indicator = 1
			res.TargetHits++
		}
		if err := hh.Add(indicator*numEdges, 1); err != nil {
			return res, err
		}
		if err := ht.Add(e, indicator, incl); err != nil {
			return res, err
		}
	}
	res.HH = hh.Estimate()
	res.HT = ht.Estimate()
	res.DistinctEdges = ht.Distinct()
	res.APICalls = s.Calls()
	res.Walkers = 1
	return res, nil
}
