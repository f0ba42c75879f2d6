package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/osn"
)

// PairEstimate is one row of an estimated label-pair census.
type PairEstimate struct {
	Pair graph.LabelPair
	// Estimate is the estimated number of edges carrying the pair.
	Estimate float64
	// Hits is how many sampled edges carried the pair.
	Hits int
}

// CensusResult is the outcome of EstimateCensus.
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

// EstimateCensus estimates the counts of ALL label pairs simultaneously
// from a single NeighborSample walk: every sampled edge is a uniform edge
// sample, so each pair's count is estimated by |E|·hits(pair)/k — the
// Hansen–Hurwitz estimator of Eq. 2 applied to every pair at once. Use it
// to discover which label pairs are worth a dedicated estimation run when
// no target pair is given a priori; rare pairs need a dedicated
// NeighborExploration run to be pinned down (the paper's finding 4).
//
// An edge with multi-label endpoints contributes one hit to every label
// pair it carries, matching exact.LabelPairCensus.
//
// The walk is recorded as a shared Trajectory and replayed through
// CensusFromTrajectory — the same sample stream the historical private
// census loop drew (identical RNG consumption), so sample-driven estimates
// and hit counts are bit-identical to the pre-registry implementation.
// APICalls now reports the trajectory's recording cost, which prepays each
// arrived-at node's friend list (the NeighborExploration charging pattern)
// so the same recording can also serve degree-reading tasks; a census-only
// walk would have paid for one fewer list.
func EstimateCensus(s *osn.Session, k int, opts Options) (CensusResult, error) {
	var res CensusResult
	if k <= 0 {
		return res, fmt.Errorf("core: EstimateCensus needs k > 0, got %d", k)
	}
	traj, err := RecordTrajectory(s, k, opts)
	if err != nil {
		return res, err
	}
	return CensusFromTrajectory(traj, 0)
}

// CensusFromTrajectory replays a recorded trajectory through the census
// estimator: every recorded transition is a uniform edge sample, label reads
// are free, so the census rides along on any trajectory at zero additional
// API cost. top > 0 truncates the (descending) result to the top rows.
// Per-walker hit counts are summed in walker order, exactly like the
// historical fleet census.
func CensusFromTrajectory(t *Trajectory, top int) (CensusResult, error) {
	var res CensusResult
	if t == nil || t.Samples() == 0 {
		return res, fmt.Errorf("core: census replay needs a recorded trajectory")
	}
	out, err := replayOne(t, censusTask{top: top})
	if err != nil {
		return res, err
	}
	return out.(CensusResult), nil
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

func errCensusEmpty() error { return fmt.Errorf("core: EstimateCensus drew no samples") }
