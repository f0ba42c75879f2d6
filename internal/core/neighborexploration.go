package core

import (
	"repro/internal/graph"
	"repro/internal/osn"
)

// NeighborExplorationResult carries the outputs of one NeighborExploration
// run (Algorithm 2 with the single-walk implementation of Section 4.2.2).
type NeighborExplorationResult struct {
	// HH is the Hansen–Hurwitz estimate of F (Eq. 11).
	HH float64
	// HHStdErr is a standard error for HH: batch-means on a one-walker run,
	// between-walker on multi-walker runs (see
	// NeighborSampleResult.HHStdErr).
	HHStdErr float64
	// HT is the Horvitz–Thompson estimate of F (Eq. 13).
	HT float64
	// RW is the Re-weighted (importance sampling) estimate of F (Eq. 19).
	RW float64
	// Samples is the number of nodes sampled.
	Samples int
	// DistinctNodes is the number of distinct nodes feeding the HT
	// estimator.
	DistinctNodes int
	// Explorations is how many sampled nodes carried a target label and had
	// their neighborhoods explored (deduplicated per node).
	Explorations int
	// TargetEdgeMass is Σ T(u_i) over the sample — the total target-edge
	// incidences observed.
	TargetEdgeMass int64
	// APICalls is the number of charged API calls in the sampling phase,
	// including exploration surcharges per the cost model. For a
	// multi-walker run this is the sum of the per-walker bills.
	APICalls int64
	// Walkers is how many concurrent walkers produced the sample.
	Walkers int
	// HHCI, HTCI and RWCI are variance-based confidence intervals computed
	// from the per-walker estimates. Zero (Valid() == false) on one-walker
	// runs.
	HHCI CI
	HTCI CI
	RWCI CI
}

// NeighborExploration samples nodes via a single simple random walk; for
// every sampled node carrying one of the target labels it explores the full
// neighborhood and records T(u), the number of incident target edges. It
// returns the HH, HT and RW estimates of F. Sampling probability of node u
// per step is the stationary π(u) = d(u)/2|E| (Section 4.2).
//
// k is the number of samples, or the API-call budget when
// opts.BudgetDriven is set. The walk is a recording replayed for this one
// pair; exploration is billed per opts.Cost while recording, at a node's
// first exploration per walker, so the surcharges count against the budget.
func NeighborExploration(s *osn.Session, pair graph.LabelPair, k int, opts Options) (NeighborExplorationResult, error) {
	pe, err := estimatePair(s, pair, k, opts, billing{cost: opts.Cost, pair: pair}, onlyNE)
	return pe.NE, err
}
