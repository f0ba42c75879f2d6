package core

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/graph"
)

// This file holds the estimator-aggregation stage of NeighborSample and
// NeighborExploration as streaming accumulators: the pairs replay feeds one
// recorded step at a time and reads the finished result at the end, so a
// standalone estimate, a per-pair replay and the fused multi-query replay
// pass all drive the exact same arithmetic in the exact same order. The
// serial mode (one walker) keeps the historical single-walk arithmetic
// operation for operation — the golden serial test pins it — and the
// parallel mode merges per-walker streams. Walker boundaries are explicit
// (beginWalker/endWalker) so the per-walker sub-estimates behind the
// confidence intervals accumulate walker by walker.
//
// The Horvitz–Thompson dedup is precomputed per trajectory (replaycols.go):
// addStep receives whether the step survives the thinning gap and whether it
// is the first retained occurrence of its unit, so the HT sums receive the
// same y/π terms in the same order a dedup map would give them.

// CI is the variance-based confidence interval attached to multi-walker
// results (alias of estimate.CI).
type CI = estimate.CI

// ciLevel is the nominal coverage of the reported intervals.
const ciLevel = 0.95

// retainedCount is the thinning arithmetic: how many of a walker's n samples
// feed the HT estimator at the given gap.
func retainedCount(n, gap int) int {
	if gap > 1 {
		return n / gap
	}
	return n
}

// retainedTotal sums the retained counts of per-walker sample counts,
// failing when the thinning gap leaves nothing.
func retainedTotal(perCounts []int, gap int) (int, error) {
	retained, total := 0, 0
	for _, n := range perCounts {
		retained += retainedCount(n, gap)
		total += n
	}
	if retained == 0 {
		return 0, fmt.Errorf("core: thinning gap %d leaves no samples out of %d", gap, total)
	}
	return retained, nil
}

// nsAgg streams edge samples into the NeighborSample estimators.
type nsAgg struct {
	numEdges float64
	thinGap  int
	serial   bool
	walkers  int

	incl    float64 // pooled HT inclusion probability
	hh      *estimate.HansenHurwitz
	ht      *estimate.HorvitzThompson[graph.Edge]
	hhTerms []float64 // serial only: feeds the batch-means SE
	perHH   []float64 // parallel only: per-walker estimates for the CIs
	perHT   []float64

	samples    int
	targetHits int

	// current-walker state
	whh   *estimate.HansenHurwitz
	wht   *estimate.HorvitzThompson[graph.Edge]
	wincl float64
	wn    int // sample count of the current walker
}

// newNSAgg sizes a NeighborSample accumulator for the per-walker sample
// counts (the walker extents of the replayed trajectory). serial selects the
// single-walk aggregation; otherwise the multi-walker merging is used with
// len(perCounts) walkers.
func newNSAgg(numEdges float64, thinGap int, serial bool, perCounts []int) (*nsAgg, error) {
	retained, err := retainedTotal(perCounts, thinGap)
	if err != nil {
		return nil, err
	}
	a := &nsAgg{
		numEdges: numEdges,
		thinGap:  thinGap,
		serial:   serial,
		walkers:  len(perCounts),
		incl:     estimate.InclusionProbability(1/numEdges, retained),
		hh:       &estimate.HansenHurwitz{},
		ht:       &estimate.HorvitzThompson[graph.Edge]{},
	}
	if serial {
		a.hhTerms = make([]float64, 0, perCounts[0])
	} else {
		a.perHH = make([]float64, 0, len(perCounts))
		a.perHT = make([]float64, 0, len(perCounts))
	}
	return a, nil
}

// beginWalker opens the next walker's sample stream of n samples.
func (a *nsAgg) beginWalker(n int) {
	a.wn = n
	if !a.serial {
		a.whh = &estimate.HansenHurwitz{}
		a.wht = &estimate.HorvitzThompson[graph.Edge]{}
		a.wincl = estimate.InclusionProbability(1/a.numEdges, retainedCount(n, a.thinGap))
	}
}

// addStep streams one walk transition: target reports whether the edge
// carries the pair, retained whether the step survives the thinning gap, and
// first / firstW whether it is the first retained occurrence of its
// canonical edge in the pooled / per-walker stream.
func (a *nsAgg) addStep(target bool, retained, first, firstW bool) error {
	a.samples++
	indicator := 0.0
	if target {
		indicator = 1
		a.targetHits++
	}
	// HH term: I(X_i)/π(X_i) with π = 1/|E| (uniform edge sample).
	term := indicator * a.numEdges
	if a.serial {
		a.hhTerms = append(a.hhTerms, term)
	}
	a.hh.AddUnit(term)
	if !a.serial {
		a.whh.AddUnit(term)
	}
	if retained {
		if first {
			if err := a.ht.AddFirst(indicator, a.incl); err != nil {
				return err
			}
		}
		if !a.serial && firstW {
			if err := a.wht.AddFirst(indicator, a.wincl); err != nil {
				return err
			}
		}
	}
	return nil
}

// endWalker closes the current walker, folding its sub-estimates into the
// per-walker series behind the confidence intervals.
func (a *nsAgg) endWalker() {
	if !a.serial && a.wn > 0 {
		a.perHH = append(a.perHH, a.whh.Estimate())
		a.perHT = append(a.perHT, a.wht.Estimate())
	}
}

// finishInto writes the finished estimators into res (every field except
// APICalls).
func (a *nsAgg) finishInto(res *NeighborSampleResult) {
	res.Samples = a.samples
	res.TargetHits = a.targetHits
	res.HH = a.hh.Estimate()
	res.HT = a.ht.Estimate()
	res.DistinctEdges = a.ht.Distinct()
	if a.serial {
		res.HHStdErr = batchSE(a.hhTerms)
		res.Walkers = 1
		return
	}
	res.HHCI = estimate.CIFromEstimates(a.perHH, ciLevel)
	res.HTCI = estimate.CIFromEstimates(a.perHT, ciLevel)
	res.HHStdErr = res.HHCI.StdErr
	res.Walkers = a.walkers
}

// neAgg streams node samples into the NeighborExploration estimators.
type neAgg struct {
	numEdges float64
	numNodes float64
	serial   bool
	walkers  int

	hh      *estimate.HansenHurwitz
	ht      *estimate.HorvitzThompson[graph.Node]
	rw      *estimate.Reweighted
	hhTerms []float64
	perHH   []float64
	perHT   []float64
	perRW   []float64

	samples        int
	targetEdgeMass int64

	// current-walker state
	whh *estimate.HansenHurwitz
	wht *estimate.HorvitzThompson[graph.Node]
	wrw *estimate.Reweighted
	wn  int
}

// newNEAgg sizes a NeighborExploration accumulator; see newNSAgg. The HT
// inclusion probabilities arrive per step (replayCols), so only the
// thinning check needs the gap here.
func newNEAgg(numEdges, numNodes float64, thinGap int, serial bool, perCounts []int) (*neAgg, error) {
	if _, err := retainedTotal(perCounts, thinGap); err != nil {
		return nil, err
	}
	a := &neAgg{
		numEdges: numEdges,
		numNodes: numNodes,
		serial:   serial,
		walkers:  len(perCounts),
		hh:       &estimate.HansenHurwitz{},
		ht:       &estimate.HorvitzThompson[graph.Node]{},
		rw:       &estimate.Reweighted{},
	}
	if serial {
		a.hhTerms = make([]float64, 0, perCounts[0])
	} else {
		a.perHH = make([]float64, 0, len(perCounts))
		a.perHT = make([]float64, 0, len(perCounts))
		a.perRW = make([]float64, 0, len(perCounts))
	}
	return a, nil
}

// beginWalker opens the next walker's sample stream of n samples.
func (a *neAgg) beginWalker(n int) {
	a.wn = n
	if !a.serial {
		a.whh = &estimate.HansenHurwitz{}
		a.wht = &estimate.HorvitzThompson[graph.Node]{}
		a.wrw = &estimate.Reweighted{}
	}
}

// addStep streams one walk position: t = T(u) and d = d(u), the thinning and
// first-visit flags as for nsAgg.addStep, incl / inclW the step's pooled and
// per-walker HT inclusion probabilities, and invD = 1/d.
func (a *neAgg) addStep(t, d int, retained, first, firstW bool, incl, inclW, invD float64) error {
	a.samples++
	a.targetEdgeMass += int64(t)
	// HH (Eq. 11): average of |E|·T(u)/d(u); |E|/d(u) is the 1/(2·π(u))
	// factor with π(u) = d(u)/2|E|.
	var term float64
	if t != 0 {
		// float64(0)*numEdges/d is exactly +0, so the skipped division
		// changes no bits.
		term = float64(t) * a.numEdges / float64(d)
	}
	if a.serial {
		a.hhTerms = append(a.hhTerms, term)
	}
	a.hh.AddUnit(term)
	if !a.serial {
		a.whh.AddUnit(term)
	}
	// RW (Eq. 19): ratio of Σ T/d to 2·Σ 1/d, scaled by |V|.
	rw := a.rw
	if !a.serial {
		rw = a.wrw
	}
	if err := rw.AddInv(float64(t), float64(d), invD); err != nil {
		return err
	}
	// HT (Eq. 13): distinct nodes, inclusion 1−(1−d(u)/2|E|)^m.
	if retained {
		if first {
			if err := a.ht.AddFirst(float64(t), incl); err != nil {
				return err
			}
		}
		if !a.serial && firstW {
			if err := a.wht.AddFirst(float64(t), inclW); err != nil {
				return err
			}
		}
	}
	return nil
}

// endWalker closes the current walker, merging its RW draws into the pooled
// ratio and recording its sub-estimates for the confidence intervals.
func (a *neAgg) endWalker() {
	if a.serial {
		return
	}
	a.rw.Merge(a.wrw)
	if a.wn > 0 {
		a.perHH = append(a.perHH, a.whh.Estimate())
		a.perHT = append(a.perHT, a.wht.Estimate()/2)
		a.perRW = append(a.perRW, a.wrw.Ratio()*a.numNodes/2)
	}
}

// finishInto writes the finished estimators into res (every field except
// APICalls and Explorations, which the pairs replay fills in).
func (a *neAgg) finishInto(res *NeighborExplorationResult) {
	res.Samples = a.samples
	res.TargetEdgeMass = a.targetEdgeMass
	res.HH = a.hh.Estimate()
	res.HT = a.ht.Estimate() / 2
	res.RW = a.rw.Ratio() * a.numNodes / 2
	res.DistinctNodes = a.ht.Distinct()
	if a.serial {
		res.HHStdErr = batchSE(a.hhTerms)
		res.Walkers = 1
		return
	}
	res.HHCI = estimate.CIFromEstimates(a.perHH, ciLevel)
	res.HTCI = estimate.CIFromEstimates(a.perHT, ciLevel)
	res.RWCI = estimate.CIFromEstimates(a.perRW, ciLevel)
	res.HHStdErr = res.HHCI.StdErr
	res.Walkers = a.walkers
}
