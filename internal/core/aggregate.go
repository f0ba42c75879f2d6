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
// pass all drive the exact same arithmetic in the exact same order. Every
// walker count runs the same accumulation: each estimator pools the whole
// pass and keeps a sub-estimate per walker (beginWalker/endWalker). The
// sub-estimates give a fleet of two or more its between-walker intervals;
// a lone walker's HH standard error comes from the batch means that
// estimate.FleetHH streams, and its answers are the single walk's, bit for
// bit (the golden serial test pins them).
//
// The Horvitz–Thompson dedup is precomputed per trajectory (replaycols.go):
// addStep receives whether the step is the first retained occurrence of its
// unit in the pass and in its walker, so the HT sums receive the same y/π
// terms in the same order a dedup map would give them; both flags are false
// at steps the thinning gap drops.

// CI is the variance-based confidence interval attached to multi-walker
// results (alias of estimate.CI).
type CI = estimate.CI

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

	hh      estimate.FleetHH
	ht, wht estimate.HorvitzThompson[graph.Edge] // pooled, current walker's
	incl    float64                              // pooled HT inclusion probability
	wincl   float64                              // the current walker's
	perHT   estimate.WalkerSeries

	samples    int
	targetHits int
}

// newNSAgg sizes a NeighborSample accumulator for the per-walker sample
// counts (the walker extents of the replayed trajectory).
func newNSAgg(numEdges float64, thinGap int, perCounts []int) (*nsAgg, error) {
	retained, err := retainedTotal(perCounts, thinGap)
	if err != nil {
		return nil, err
	}
	return &nsAgg{
		numEdges: numEdges,
		thinGap:  thinGap,
		hh:       estimate.NewFleetHH(len(perCounts)),
		incl:     estimate.InclusionProbability(1/numEdges, retained),
		perHT:    estimate.NewWalkerSeries(len(perCounts)),
	}, nil
}

// beginWalker opens the next walker's sample stream of n samples.
func (a *nsAgg) beginWalker(n int) {
	a.hh.BeginWalker(n)
	a.wht = estimate.HorvitzThompson[graph.Edge]{}
	a.wincl = estimate.InclusionProbability(1/a.numEdges, retainedCount(n, a.thinGap))
}

// addStep streams one walk transition: target reports whether the edge
// carries the pair, and first / firstW whether the step is the first
// retained occurrence of its canonical edge in the pooled / per-walker
// stream.
func (a *nsAgg) addStep(target, first, firstW bool) error {
	a.samples++
	indicator := 0.0
	if target {
		indicator = 1
		a.targetHits++
	}
	// HH term: I(X_i)/π(X_i) with π = 1/|E| (uniform edge sample).
	a.hh.Add(indicator * a.numEdges)
	if first {
		if err := a.ht.AddFirst(indicator, a.incl); err != nil {
			return err
		}
	}
	if firstW {
		return a.wht.AddFirst(indicator, a.wincl)
	}
	return nil
}

// endWalker closes the current walker of n samples, folding its
// sub-estimates into the per-walker series.
func (a *nsAgg) endWalker(n int) {
	a.hh.EndWalker()
	a.perHT.Add(n, a.wht.Estimate())
}

// finishInto writes the finished estimators into res (every field except
// APICalls and Walkers, which the pairs replay fills in).
func (a *nsAgg) finishInto(res *NeighborSampleResult) {
	res.Samples = a.samples
	res.TargetHits = a.targetHits
	res.HH, res.HHCI, res.HHStdErr = a.hh.Result()
	res.HT = a.ht.Estimate()
	res.HTCI = a.perHT.CI()
	res.DistinctEdges = a.ht.Distinct()
}

// neAgg streams node samples into the NeighborExploration estimators.
type neAgg struct {
	numEdges float64
	numNodes float64

	hh           estimate.FleetHH
	ht, wht      estimate.HorvitzThompson[graph.Node] // pooled, current walker's
	rw, wrw      estimate.Reweighted                  // pooled, current walker's
	perHT, perRW estimate.WalkerSeries

	samples        int
	targetEdgeMass int64
}

// newNEAgg sizes a NeighborExploration accumulator; see newNSAgg. The HT
// inclusion probabilities arrive per step (replayCols), so only the
// thinning check needs the gap here.
func newNEAgg(numEdges, numNodes float64, thinGap int, perCounts []int) (*neAgg, error) {
	if _, err := retainedTotal(perCounts, thinGap); err != nil {
		return nil, err
	}
	W := len(perCounts)
	return &neAgg{
		numEdges: numEdges,
		numNodes: numNodes,
		hh:       estimate.NewFleetHH(W),
		perHT:    estimate.NewWalkerSeries(W),
		perRW:    estimate.NewWalkerSeries(W),
	}, nil
}

// beginWalker opens the next walker's sample stream of n samples.
func (a *neAgg) beginWalker(n int) {
	a.hh.BeginWalker(n)
	a.wht = estimate.HorvitzThompson[graph.Node]{}
	a.wrw = estimate.Reweighted{}
}

// addStep streams one walk position: t = T(u) and d = d(u), the
// first-occurrence flags as for nsAgg.addStep, incl / inclW the step's
// pooled and per-walker HT inclusion probabilities, and invD = 1/d.
func (a *neAgg) addStep(t, d int, first, firstW bool, incl, inclW, invD float64) error {
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
	a.hh.Add(term)
	// RW (Eq. 19): ratio of Σ T/d to 2·Σ 1/d, scaled by |V|.
	if err := a.wrw.AddInv(float64(t), float64(d), invD); err != nil {
		return err
	}
	// HT (Eq. 13): distinct nodes, inclusion 1−(1−d(u)/2|E|)^m.
	if first {
		if err := a.ht.AddFirst(float64(t), incl); err != nil {
			return err
		}
	}
	if firstW {
		return a.wht.AddFirst(float64(t), inclW)
	}
	return nil
}

// endWalker closes the current walker of n samples, merging its RW draws
// into the pooled ratio and folding its sub-estimates into the per-walker
// series.
func (a *neAgg) endWalker(n int) {
	a.hh.EndWalker()
	a.rw.Merge(&a.wrw)
	a.perHT.Add(n, a.wht.Estimate()/2)
	a.perRW.Add(n, a.wrw.Ratio()*a.numNodes/2)
}

// finishInto writes the finished estimators into res (every field except
// APICalls, Walkers and Explorations, which the pairs replay fills in).
func (a *neAgg) finishInto(res *NeighborExplorationResult) {
	res.Samples = a.samples
	res.TargetEdgeMass = a.targetEdgeMass
	res.HH, res.HHCI, res.HHStdErr = a.hh.Result()
	res.HT = a.ht.Estimate() / 2
	res.HTCI = a.perHT.CI()
	res.RW = a.rw.Ratio() * a.numNodes / 2
	res.RWCI = a.perRW.CI()
	res.DistinctNodes = a.ht.Distinct()
}
