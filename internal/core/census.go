package core

import (
	"sort"

	"repro/internal/graph"
)

// PairEstimate is one row of an estimated label-pair census, and the row
// the HTTP census answer encodes.
type PairEstimate struct {
	graph.Pair
	// Estimate is the estimated number of edges carrying the pair.
	Estimate float64 `json:"estimate"`
	// Hits is how many sampled edges carried the pair.
	Hits int `json:"hits"`
}

// CensusResult is the result type of task kind "census": the counts of ALL
// label pairs, estimated at once from one recorded walk. Every recorded
// transition is a uniform edge sample and label reads are free, so each
// pair's count is estimated by |E|·hits(pair)/k — the Hansen–Hurwitz
// estimator of Eq. 2 applied to every pair at once — at zero additional API
// cost on any trajectory. Use it to discover which label pairs are worth a
// dedicated estimation run when no target pair is given a priori; rare pairs
// need a dedicated NeighborExploration run to be pinned down (the paper's
// finding 4).
//
// An edge with multi-label endpoints contributes one hit to every label
// pair it carries, matching exact.LabelPairCensus. Per-walker hit counts
// are summed in walker order, and a serial replay draws the sample stream
// of the historical private census loop, so estimates and hit counts are
// bit-identical to it. APICalls reports the trajectory's recording cost,
// which prepays each arrived-at node's friend list (the
// NeighborExploration charging pattern) so the same recording can also
// serve degree-reading tasks; a census-only walk would have paid for one
// fewer list.
type CensusResult struct {
	// Pairs holds the estimated census, descending by estimate.
	Pairs []PairEstimate
	// Samples is the number of edges sampled.
	Samples int
	// APICalls is the number of charged API calls during sampling (summed
	// per-walker bills for a multi-walker run).
	APICalls int64
	// Walkers is how many concurrent walkers produced the census.
	Walkers int
}

// censusHits credits one hit to every label pair the edge (u, v) carries,
// deduplicating pairs that arise from several label combinations of the
// same edge.
func censusHits(labels LabelReader, u, v graph.Node, hits map[graph.LabelPair]int, seen map[graph.LabelPair]struct{}) {
	clear(seen)
	for _, a := range labels.Labels(u) {
		for _, b := range labels.Labels(v) {
			p := graph.LabelPair{T1: a, T2: b}.Canonical()
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			hits[p]++
		}
	}
}

// sortPairEstimates orders a census descending by estimate, breaking ties
// by pair for determinism.
func sortPairEstimates(pairs []PairEstimate) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Estimate != pairs[j].Estimate {
			return pairs[i].Estimate > pairs[j].Estimate
		}
		pi, pj := pairs[i].Pair, pairs[j].Pair
		if pi.T1 != pj.T1 {
			return pi.T1 < pj.T1
		}
		return pi.T2 < pj.T2
	})
}
