package core

import (
	"slices"
	"sync"

	"repro/internal/estimate"
	"repro/internal/graph"
)

// This file builds the trajectory's pair-independent replay columns. The
// Horvitz–Thompson estimators contribute y/π once per *distinct* retained
// unit, and which step first sees each edge or node is a property of the
// trajectory alone — it is the same for every queried label pair and every
// concurrent query. Likewise the NE inclusion probability depends only on
// the step's degree and the retained-sample count, and 1/d(u) only on the
// degree. Precomputing all of them once turns the per-pair inner loop of
// the fused replay into straight-line float arithmetic: no dedup maps, no
// expm1/log1p, no divisions that every pair would redo.
//
// The columns come in groups that different replays need — NeighborSample's
// edge flags, NeighborExploration's node columns, the occurrence index, the
// common-neighbor counts — and each group builds lazily under its own Once,
// so a replay pays only for what it reads. All groups derive from the step
// columns and recording parameters, not from labels, so BindLabels keeps
// them. Flags are false and inclusion probabilities zero at steps the
// thinning gap drops, so the HT estimators skip those steps.

// nsCols are NeighborSample's HT dedup flags. edgeFirst flags the first
// retained occurrence of the step's canonical edge across the whole pass, in
// global step order — the H(· ∈ S) indicator of the pooled HT estimator;
// edgeFirstW flags first retained occurrences within the owning walker, the
// indicator of the per-walker sub-estimates behind the confidence intervals
// (the edgeFirst column itself for a lone walker; see walkerCol).
type nsCols struct {
	edgeFirst, edgeFirstW []bool
}

// neCols are NeighborExploration's per-step columns.
type neCols struct {
	// nodeFirst and nodeFirstW are the node analogues of nsCols' flags.
	nodeFirst, nodeFirstW []bool
	// nodeFirstAllW flags the first occurrence of the arrival node within
	// its walker among ALL steps (retention does not apply): the
	// exploration counter visits every step and resets per walker, and
	// whether a node counts as explored is a per-node label property, so
	// first-occurrence is the only per-step state it needs.
	nodeFirstAllW []bool
	// incl[i] is InclusionProbability(d(u_i)/2|E|, retainedTotal), the HT
	// inclusion probability of step i; inclW uses the owning walker's
	// retained count (the incl column itself for a lone walker).
	incl, inclW []float64
	// invDeg[i] is 1/d(u_i), shared by every pair's re-weighted estimator.
	invDeg []float64
}

// OccurrenceIndex groups the trajectory's arrivals by node: Nodes lists the
// distinct arrival nodes in ascending order, and node j's occurrences are
// the index range Off[j]..Off[j+1] into the Walker / Pos columns (owning
// walker and walker-local sample position, in global step order — so each
// node's occurrences are sorted by walker, then by position). Collision
// counting (sizeest) derives its same-node pair counts from this index
// instead of rebuilding per-walker position maps on every replay; the
// counts are integer sums over unordered pairs, and the per-step label
// columns write each node's steps wherever it is listed, so neither the
// grouping nor the order of Nodes changes any result bit.
type OccurrenceIndex struct {
	Nodes  []graph.Node
	Off    []int32
	Walker []int32
	Pos    []int32
}

// lazyCol is one lazily built column group, shared by concurrent replays.
type lazyCol[T any] struct {
	once sync.Once
	v    T
}

func (c *lazyCol[T]) get(build func() T) T {
	c.once.Do(func() { c.v = build() })
	return c.v
}

// replayHolder holds the trajectory's lazily built replay column groups.
type replayHolder struct {
	ns     lazyCol[*nsCols]
	ne     lazyCol[*neCols]
	occ    lazyCol[*OccurrenceIndex]
	common lazyCol[[]int32]
}

// replay returns the trajectory's column holder. Trajectories assembled
// without SetData or NewTrajectoryFromSteps get an unshared one.
func (t *Trajectory) replay() *replayHolder {
	if t.replayH == nil {
		return &replayHolder{}
	}
	return t.replayH
}

func (t *Trajectory) nsColumns() *nsCols {
	return t.replay().ns.get(func() *nsCols { return buildNSCols(t) })
}

func (t *Trajectory) neColumns() *neCols {
	return t.replay().ne.get(func() *neCols { return buildNECols(t) })
}

// Occurrences returns the trajectory's node-occurrence index, built lazily
// and shared by every replay.
func (t *Trajectory) Occurrences() *OccurrenceIndex {
	return t.replay().occ.get(func() *OccurrenceIndex { return buildOccurrences(t) })
}

// EdgeCommonNeighbors returns the per-step count |N(prev_i) ∩ N(node_i)| of
// neighbors common to the sampled edge's endpoints — the closed-triangle
// count every triangle estimator derives per step. The previous endpoint's
// friend list is the preceding step's (the walker's start list at its first
// step), so the column is pure trajectory structure: label-independent,
// identical for every query, and built once per trajectory. Returns nil when
// the trajectory lacks per-walker start states (the prev lists are then
// unknown).
func (t *Trajectory) EdgeCommonNeighbors() []int32 {
	return t.replay().common.get(func() []int32 { return buildCommonNeighbors(t) })
}

// buildCommonNeighbors counts each step's endpoint-common neighbors. The
// prev list at step i+1 is exactly step i's friend list, so one node set
// holds the previous endpoint's friends: each step counts its own friends in
// the set, then its list replaces the previous one there.
func buildCommonNeighbors(t *Trajectory) []int32 {
	if !t.HasStarts() {
		return nil
	}
	cn := make([]int32, t.Samples())
	in := graph.NewNodeSet(t.NumNodes)
	for w := 0; w < t.NumWalkers(); w++ {
		prev := t.StartNeighbors(w)
		for _, v := range prev {
			in.Add(v)
		}
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			nbrs := t.StepNeighbors(i)
			for _, v := range nbrs {
				if in.Has(v) {
					cn[i]++
				}
			}
			for _, v := range prev {
				in.Remove(v)
			}
			for _, v := range nbrs {
				in.Add(v)
			}
			prev = nbrs
		}
		for _, v := range prev {
			in.Remove(v)
		}
	}
	return cn
}

// thinStride is the step stride of the HT-retained samples: every ThinGap-th
// step of each walker, counted from its first.
func (t *Trajectory) thinStride() int { return max(t.ThinGap, 1) }

// walkerCol returns the column of a per-walker flag or probability that
// shadows the pooled column. A lone walker's first occurrences and retained
// count are the pass's own, so its column is the pooled one; a fleet's is
// its own.
func walkerCol[T any](t *Trajectory, pooled []T) []T {
	if t.NumWalkers() == 1 {
		return pooled
	}
	return make([]T, len(pooled))
}

// buildNSCols replays the edge dedup the NeighborSample HT estimators would
// do over the retained steps and freezes the outcome into flag columns.
func buildNSCols(t *Trajectory) *nsCols {
	S := t.Samples()
	c := &nsCols{edgeFirst: make([]bool, S)}
	c.edgeFirstW = walkerCol(t, c.edgeFirst)
	// last maps each retained edge to the last walker that retained it: an
	// edge is new to the pass when absent, and new to walker w when absent
	// or last retained by an earlier walker.
	last := make(map[graph.Edge]int32, S)
	for w := 0; w < t.NumWalkers(); w++ {
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i += t.thinStride() {
			e := graph.Edge{U: t.prev[i], V: t.node[i]}.Canonical()
			lw, seen := last[e]
			c.edgeFirst[i] = !seen
			c.edgeFirstW[i] = !seen || lw != int32(w)
			if c.edgeFirstW[i] {
				last[e] = int32(w)
			}
		}
	}
	return c
}

// buildNECols scans the step columns once for the NeighborExploration
// columns.
func buildNECols(t *Trajectory) *neCols {
	S := t.Samples()
	W := t.NumWalkers()
	c := &neCols{
		nodeFirst:     make([]bool, S),
		nodeFirstAllW: make([]bool, S),
		incl:          make([]float64, S),
		invDeg:        make([]float64, S),
	}
	c.nodeFirstW, c.inclW = walkerCol(t, c.nodeFirst), walkerCol(t, c.incl)
	// Retained-sample counts, exactly as the aggregators size them: the
	// pooled count feeds incl, the per-walker counts feed inclW.
	retTotal := 0
	retW := make([]int, W)
	for w := range retW {
		retW[w] = retainedCount(t.WalkerLen(w), t.ThinGap)
		retTotal += retW[w]
	}
	numEdges := float64(t.NumEdges)
	seen := graph.NewNodeSet(t.NumNodes)
	for w := 0; w < W; w++ {
		lo, hi := t.WalkerSpan(w)
		seenAll, seenW := graph.NewNodeSet(t.NumNodes), graph.NewNodeSet(t.NumNodes)
		for i := lo; i < hi; i++ {
			u, d := t.node[i], float64(t.deg[i])
			c.invDeg[i] = 1 / d
			c.nodeFirstAllW[i] = seenAll.Add(u)
			if (i-lo)%t.thinStride() != 0 {
				continue
			}
			c.nodeFirst[i] = seen.Add(u)
			c.incl[i] = estimate.InclusionProbability(d/(2*numEdges), retTotal)
			c.nodeFirstW[i] = seenW.Add(u)
			c.inclW[i] = estimate.InclusionProbability(d/(2*numEdges), retW[w])
		}
	}
	return c
}

// buildOccurrences assembles the node-occurrence index: a node set lists
// the distinct arrival nodes in ascending order, and each step finds its
// node's group as the node's rank in the set, once to count the group and
// once to fill it.
func buildOccurrences(t *Trajectory) *OccurrenceIndex {
	S := t.Samples()
	arrived := graph.NewNodeSet(t.NumNodes)
	distinct := 0
	for _, u := range t.node {
		if arrived.Add(u) {
			distinct++
		}
	}
	group := arrived.Ranks()
	occ := &OccurrenceIndex{
		Nodes:  arrived.AppendTo(make([]graph.Node, 0, distinct)),
		Off:    make([]int32, distinct+1),
		Walker: make([]int32, S),
		Pos:    make([]int32, S),
	}
	for _, u := range t.node {
		occ.Off[group(u)+1]++
	}
	for j := range distinct {
		occ.Off[j+1] += occ.Off[j]
	}
	fill := slices.Clone(occ.Off[:distinct])
	for w := 0; w < t.NumWalkers(); w++ {
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			j := group(t.node[i])
			occ.Walker[fill[j]] = int32(w)
			occ.Pos[fill[j]] = int32(i - lo)
			fill[j]++
		}
	}
	return occ
}
