package core

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// This file is the replay driver: one iteration over the trajectory's step
// columns that feeds every query's streaming aggregators simultaneously. It
// is the only walker-major replay loop — a single task is a pass of one
// (RunTask, EstimateManyPairs, CensusFromTrajectory and the per-package
// FromTrajectory helpers all replay through it). N queries over one
// trajectory cost one column sweep, with label membership answered by the
// precomputed mask columns (labelcols.go). Bit-identity with one-task
// passes is structural: each aggregator still receives exactly its own
// sample sequence in walker-major step order — fusing only interleaves
// *different* accumulators, never reorders any one accumulator's inputs.

// TrajectoryVisitor consumes a trajectory's steps in one walker-major pass.
// The driver calls BeginWalker(w, n) with walker w's sample count, then
// VisitStep for each global step index in WalkerSpan(w), then EndWalker —
// for every walker in order — and finally Result.
type TrajectoryVisitor interface {
	BeginWalker(w, n int) error
	VisitStep(i int) error
	EndWalker(w int) error
	Result() (any, error)
}

// RunTasksFused replays every task over t in ONE pass over the step columns:
// each task's visitor joins the shared sweep. Errors are isolated per task
// (errs[i] mirrors tasks[i]); a failed visitor drops out of the pass without
// disturbing the others.
func RunTasksFused(t *Trajectory, tasks []EstimationTask) (outs []any, errs []error) {
	outs = make([]any, len(tasks))
	errs = make([]error, len(tasks))
	type slot struct {
		idx int
		v   TrajectoryVisitor
	}
	active := make([]slot, 0, len(tasks))
	for idx, task := range tasks {
		switch {
		case task == nil:
			errs[idx] = fmt.Errorf("core: nil estimation task")
		case t == nil || t.Samples() == 0:
			errs[idx] = fmt.Errorf("core: %s replay needs a recorded trajectory", task.Kind())
		default:
			v, err := task.NewVisitor(t)
			if err != nil {
				errs[idx] = err
				continue
			}
			active = append(active, slot{idx: idx, v: v})
		}
	}
	if len(active) == 0 {
		return outs, errs
	}
	drop := func(k int, err error) {
		errs[active[k].idx] = err
		active = append(active[:k], active[k+1:]...)
	}
	W := t.NumWalkers()
	for w := 0; w < W && len(active) > 0; w++ {
		lo, hi := t.WalkerSpan(w)
		for k := 0; k < len(active); k++ {
			if err := active[k].v.BeginWalker(w, hi-lo); err != nil {
				drop(k, err)
				k--
			}
		}
		for i := lo; i < hi && len(active) > 0; i++ {
			for k := 0; k < len(active); k++ {
				if err := active[k].v.VisitStep(i); err != nil {
					drop(k, err)
					k--
				}
			}
		}
		for k := 0; k < len(active); k++ {
			if err := active[k].v.EndWalker(w); err != nil {
				drop(k, err)
				k--
			}
		}
	}
	for _, s := range active {
		outs[s.idx], errs[s.idx] = s.v.Result()
	}
	return outs, errs
}

// pairReplayState is one label pair's streaming aggregators inside the
// fused pass.
type pairReplayState struct {
	pair   graph.LabelPair
	m1, m2 uint64 // the pair's mask bits (mask path)
	// tt[i] is T(node_i), or -1 where the node carries neither label
	// (LabelReader path, when NeighborExploration runs).
	tt []int32
	ns *nsAgg // nil when NeighborSample does not run
	ne *neAgg // nil when NeighborExploration does not run
	// explorations counts distinct explored nodes per walker, summed over
	// walkers. Whether a node explores is a per-node label property, so the
	// walker-local first-occurrence column decides it — no per-pair set.
	explorations int
}

// pairsVisitor replays every queried label pair's NS and NE estimators in
// one pass — the pairs task's visitor, behind EstimateManyPairs,
// NeighborSample and NeighborExploration.
type pairsVisitor struct {
	t  *Trajectory
	lc *labelCols // nil on the LabelReader path
	ns *nsCols    // nil when NeighborSample does not run
	ne *neCols    // nil when NeighborExploration does not run
	lo int        // first global step of the current walker
	ps []pairReplayState
}

// newPairsVisitor builds the column groups the task's estimators read and
// sizes the per-pair aggregators from the walker extents (every recorded
// step yields exactly one edge sample and one node sample, so the per-walker
// sample counts are the walker lengths).
func newPairsVisitor(t *Trajectory, pt pairsTask) (*pairsVisitor, error) {
	v := &pairsVisitor{t: t, ps: make([]pairReplayState, len(pt.pairs))}
	if pt.only == bothEstimators {
		if lc := t.labelColumns(); lc.ok {
			v.lc = lc
		}
	}
	if pt.only != onlyNE {
		v.ns = t.nsColumns()
	}
	if pt.only != onlyNS {
		v.ne = t.neColumns()
	}
	serial := t.Walkers <= 1
	counts := make([]int, t.NumWalkers())
	for w := range counts {
		counts[w] = t.WalkerLen(w)
	}
	numEdges, numNodes := float64(t.NumEdges), float64(t.NumNodes)
	for k, pair := range pt.pairs {
		p := &v.ps[k]
		p.pair = pair
		var err error
		if v.ns != nil {
			if p.ns, err = newNSAgg(numEdges, t.ThinGap, serial, counts); err != nil {
				return nil, err
			}
		}
		if v.ne != nil {
			if p.ne, err = newNEAgg(numEdges, numNodes, t.ThinGap, serial, counts); err != nil {
				return nil, err
			}
		}
		switch {
		case v.lc != nil:
			p.m1, p.m2 = v.lc.pairMasks(pair)
		case v.ne != nil:
			p.tt = targetDegrees(t, pair)
		}
	}
	return v, nil
}

// targetDegrees computes T(u) for pair once per distinct arrival node,
// through the occurrence index, and spreads it over the node's steps (-1
// where the node carries neither label). A node's friend list is the same at
// each of its steps — one recording reads one graph version — so this is
// ReplayTargetDegree at every step.
func targetDegrees(t *Trajectory, pair graph.LabelPair) []int32 {
	occ := t.Occurrences()
	tt := make([]int32, t.Samples())
	for j, u := range occ.Nodes {
		lo, hi := occ.Off[j], occ.Off[j+1]
		at := func(o int32) int { return int(t.ext[occ.Walker[o]]) + int(occ.Pos[o]) }
		d, explores := ReplayTargetDegree(t.labels, TrajStep{Node: u, Neighbors: t.StepNeighbors(at(lo))}, pair)
		if !explores {
			d = -1
		}
		for o := lo; o < hi; o++ {
			tt[at(o)] = int32(d)
		}
	}
	return tt
}

func (v *pairsVisitor) BeginWalker(w, n int) error {
	v.lo, _ = v.t.WalkerSpan(w)
	for k := range v.ps {
		p := &v.ps[k]
		if p.ns != nil {
			p.ns.beginWalker(n)
		}
		if p.ne != nil {
			p.ne.beginWalker(n)
		}
	}
	return nil
}

func (v *pairsVisitor) VisitStep(i int) error {
	// The HT dedup outcome, the NE inclusion probability and 1/d are
	// pair-independent — read once from the precomputed columns and share
	// them across every queried pair.
	retained := (i-v.lo)%v.t.thinStride() == 0
	if c := v.ns; c != nil {
		first, firstW := c.edgeFirst[i], c.edgeFirstW != nil && c.edgeFirstW[i]
		for k := range v.ps {
			p := &v.ps[k]
			if err := p.ns.addStep(v.target(p, i), retained, first, firstW); err != nil {
				return err
			}
		}
	}
	if c := v.ne; c != nil {
		d := int(v.t.deg[i])
		first, firstAllW, incl, invD := c.nodeFirst[i], c.nodeFirstAllW[i], c.incl[i], c.invDeg[i]
		firstW, inclW := false, 0.0
		if c.nodeFirstW != nil {
			firstW, inclW = c.nodeFirstW[i], c.inclW[i]
		}
		for k := range v.ps {
			p := &v.ps[k]
			tt, explores := v.targetDegree(p, i)
			if explores && firstAllW {
				p.explorations++
			}
			if err := p.ne.addStep(tt, d, retained, first, firstW, incl, inclW, invD); err != nil {
				return err
			}
		}
	}
	return nil
}

// target reports whether step i's edge carries p's pair. Membership is
// symmetric in the two endpoints, so the orientation of (prev, node) is
// irrelevant.
func (v *pairsVisitor) target(p *pairReplayState, i int) bool {
	if v.lc != nil {
		pm, nm := v.lc.stepPrev[i], v.lc.stepNode[i]
		return pm&p.m1 != 0 && nm&p.m2 != 0 || pm&p.m2 != 0 && nm&p.m1 != 0
	}
	lr, a, b := v.t.labels, v.t.prev[i], v.t.node[i]
	return lr.HasLabel(a, p.pair.T1) && lr.HasLabel(b, p.pair.T2) || lr.HasLabel(a, p.pair.T2) && lr.HasLabel(b, p.pair.T1)
}

// targetDegree returns T(node_i) for p's pair and whether the node carries a
// target label (whether NeighborExploration explores it).
func (v *pairsVisitor) targetDegree(p *pairReplayState, i int) (int, bool) {
	if v.lc == nil {
		tt := p.tt[i]
		return int(max(tt, 0)), tt >= 0
	}
	nm := v.lc.stepNode[i]
	hasT1, hasT2 := nm&p.m1 != 0, nm&p.m2 != 0
	if !hasT1 && !hasT2 {
		return 0, false
	}
	return v.lc.targetDegreeRuns(i, hasT1, hasT2, p.m1, p.m2), true
}

func (v *pairsVisitor) EndWalker(w int) error {
	for k := range v.ps {
		p := &v.ps[k]
		if p.ns != nil {
			p.ns.endWalker()
		}
		if p.ne != nil {
			p.ne.endWalker()
		}
	}
	return nil
}

// Result assembles the finished per-pair results ([]PairEstimates); the
// half of an estimator the replay did not run stays zero.
func (v *pairsVisitor) Result() (any, error) {
	out := make([]PairEstimates, len(v.ps))
	for k := range v.ps {
		p, pe := &v.ps[k], &out[k]
		pe.Pair = p.pair
		if p.ns != nil {
			p.ns.finishInto(&pe.NS)
			pe.NS.APICalls = v.t.APICalls
		}
		if p.ne != nil {
			p.ne.finishInto(&pe.NE)
			pe.NE.APICalls = v.t.APICalls
			pe.NE.Explorations = p.explorations
		}
	}
	return out, nil
}

// censusVisitor replays the all-pairs census in one pass — the census
// task's visitor, behind CensusFromTrajectory.
type censusVisitor struct {
	t        *Trajectory
	top      int
	lc       *labelCols
	useMasks bool
	hits     map[graph.LabelPair]int
	seen     map[graph.LabelPair]struct{}
	samples  int
}

func newCensusVisitor(t *Trajectory, top int) (*censusVisitor, error) {
	if top < 0 {
		return nil, fmt.Errorf("core: census replay needs top >= 0, got %d", top)
	}
	lc := t.labelColumns()
	return &censusVisitor{
		t:        t,
		top:      top,
		lc:       lc,
		useMasks: lc.ok,
		hits:     make(map[graph.LabelPair]int),
		seen:     make(map[graph.LabelPair]struct{}, 8),
	}, nil
}

func (v *censusVisitor) BeginWalker(w, n int) error { return nil }

func (v *censusVisitor) VisitStep(i int) error {
	v.samples++
	if v.useMasks {
		// The per-step credits are integer increments determined entirely
		// by the two endpoint masks, so Result replays the precomputed
		// (prev, node) mask combos scaled by multiplicity instead —
		// identical counts in O(distinct combos) work.
		return nil
	}
	censusHits(v.t.labels, v.t.prev[i], v.t.node[i], v.hits, v.seen)
	return nil
}

func (v *censusVisitor) EndWalker(w int) error { return nil }

func (v *censusVisitor) Result() (any, error) {
	var res CensusResult
	res.Samples = v.samples
	if res.Samples == 0 {
		return nil, errCensusEmpty()
	}
	if v.useMasks {
		for c := range v.lc.comboCnt {
			censusHitsMaskedN(v.lc, v.lc.comboPrev[c], v.lc.comboNode[c], int(v.lc.comboCnt[c]), v.hits, v.seen)
		}
	}
	numEdges := float64(v.t.NumEdges)
	res.Pairs = make([]PairEstimate, 0, len(v.hits))
	for p, h := range v.hits {
		res.Pairs = append(res.Pairs, PairEstimate{
			Pair:     p,
			Estimate: numEdges * float64(h) / float64(res.Samples),
			Hits:     h,
		})
	}
	sortPairEstimates(res.Pairs)
	if v.top > 0 && v.top < len(res.Pairs) {
		res.Pairs = res.Pairs[:v.top]
	}
	res.APICalls = v.t.APICalls
	res.Walkers = v.t.Walkers
	return res, nil
}

// censusHitsMaskedN is censusHits over mask columns, crediting one step's
// label pairs n times — the combo replay: n steps sharing the same endpoint
// masks credit the same pairs. The set bits of the two endpoint masks
// enumerate exactly the label sets censusHits reads through the
// LabelReader, so the credited pair set — and the hit counts — are
// identical.
func censusHitsMaskedN(lc *labelCols, pm, nm uint64, n int, hits map[graph.LabelPair]int, seen map[graph.LabelPair]struct{}) {
	clear(seen)
	for a := pm; a != 0; a &= a - 1 {
		la := lc.table[bits.TrailingZeros64(a)]
		for b := nm; b != 0; b &= b - 1 {
			lb := lc.table[bits.TrailingZeros64(b)]
			p := graph.LabelPair{T1: la, T2: lb}.Canonical()
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			hits[p] += n
		}
	}
}

// NewVisitor implements EstimationTask.
func (pt pairsTask) NewVisitor(t *Trajectory) (TrajectoryVisitor, error) {
	return newPairsVisitor(t, pt)
}

// NewVisitor implements EstimationTask.
func (ct censusTask) NewVisitor(t *Trajectory) (TrajectoryVisitor, error) {
	return newCensusVisitor(t, ct.top)
}
