package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// This file is the replay driver: one iteration over the trajectory's step
// columns that feeds every query's streaming aggregators simultaneously. It
// is the only walker-major replay loop — a single task is a pass of one
// (RunTask, EstimateManyPairs, NeighborSample and NeighborExploration all
// replay through it). N queries over one trajectory cost one column sweep,
// with label membership answered by the memoized label columns
// (labelcols.go). Bit-identity with one-task passes is structural: each
// aggregator still receives exactly its own sample sequence in walker-major
// step order — fusing only interleaves *different* accumulators, never
// reorders any one accumulator's inputs.

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
	pair graph.LabelPair
	// target and tt are the pair's memoized label columns (labelcols.go):
	// the target-edge flags when NeighborSample runs, and T(node_i), -1
	// where the node carries neither label, when NeighborExploration runs.
	target []bool
	tt     []int32
	ns     *nsAgg // nil when NeighborSample does not run
	ne     *neAgg // nil when NeighborExploration does not run
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
	ns *nsCols // nil when NeighborSample does not run
	ne *neCols // nil when NeighborExploration does not run
	ps []pairReplayState
}

// newPairsVisitor takes the columns the task's estimators read and sizes
// the per-pair aggregators from the walker extents (every recorded step
// yields exactly one edge sample and one node sample, so the per-walker
// sample counts are the walker lengths).
func newPairsVisitor(t *Trajectory, pt pairsTask) (*pairsVisitor, error) {
	v := &pairsVisitor{t: t, ps: make([]pairReplayState, len(pt.pairs))}
	if pt.only != onlyNE {
		v.ns = t.nsColumns()
	}
	if pt.only != onlyNS {
		v.ne = t.neColumns()
	}
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
			if p.ns, err = newNSAgg(numEdges, t.ThinGap, counts); err != nil {
				return nil, err
			}
		}
		if v.ne != nil {
			if p.ne, err = newNEAgg(numEdges, numNodes, t.ThinGap, counts); err != nil {
				return nil, err
			}
		}
	}
	t.pairLabelColumns(v.ps, v.ns != nil, v.ne != nil)
	return v, nil
}

func (v *pairsVisitor) BeginWalker(w, n int) error {
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
	if c := v.ns; c != nil {
		first, firstW := c.edgeFirst[i], c.edgeFirstW[i]
		for k := range v.ps {
			p := &v.ps[k]
			if err := p.ns.addStep(p.target[i], first, firstW); err != nil {
				return err
			}
		}
	}
	if c := v.ne; c != nil {
		d := int(v.t.deg[i])
		first, firstW, firstAllW := c.nodeFirst[i], c.nodeFirstW[i], c.nodeFirstAllW[i]
		incl, inclW, invD := c.incl[i], c.inclW[i], c.invDeg[i]
		for k := range v.ps {
			p := &v.ps[k]
			tt := p.tt[i]
			if tt >= 0 && firstAllW {
				p.explorations++
			}
			if err := p.ne.addStep(int(max(tt, 0)), d, first, firstW, incl, inclW, invD); err != nil {
				return err
			}
		}
	}
	return nil
}

func (v *pairsVisitor) EndWalker(w int) error {
	n := v.t.WalkerLen(w)
	for k := range v.ps {
		p := &v.ps[k]
		if p.ns != nil {
			p.ns.endWalker(n)
		}
		if p.ne != nil {
			p.ne.endWalker(n)
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
			pe.NS.APICalls, pe.NS.Walkers = v.t.APICalls, v.t.NumWalkers()
		}
		if p.ne != nil {
			p.ne.finishInto(&pe.NE)
			pe.NE.APICalls, pe.NE.Walkers = v.t.APICalls, v.t.NumWalkers()
			pe.NE.Explorations = p.explorations
		}
	}
	return out, nil
}

// censusVisitor is the visitor of task kind "census". The census is a
// memoized column of the trajectory (labelcols.go), so the pass feeds it
// nothing and Result cuts the memo to the task's top.
type censusVisitor struct {
	t   *Trajectory
	top int // non-negative: the registry's constructor rejects a negative Top
}

func (v *censusVisitor) BeginWalker(w, n int) error { return nil }
func (v *censusVisitor) VisitStep(i int) error      { return nil }
func (v *censusVisitor) EndWalker(w int) error      { return nil }

func (v *censusVisitor) Result() (any, error) {
	rows := v.t.censusRows()
	if v.top > 0 && v.top < len(rows) {
		rows = rows[:v.top]
	}
	return CensusResult{
		Pairs:    slices.Clone(rows),
		Samples:  v.t.Samples(),
		APICalls: v.t.APICalls,
		Walkers:  v.t.Walkers,
	}, nil
}

// NewVisitor implements EstimationTask.
func (pt pairsTask) NewVisitor(t *Trajectory) (TrajectoryVisitor, error) {
	return newPairsVisitor(t, pt)
}

// NewVisitor implements EstimationTask.
func (ct censusTask) NewVisitor(t *Trajectory) (TrajectoryVisitor, error) {
	return &censusVisitor{t: t, top: ct.top}, nil
}
