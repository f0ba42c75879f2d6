package core

import (
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
// thinning gap drops, because the HT estimators never see those steps.

// nsCols are NeighborSample's HT dedup flags. edgeFirst flags the first
// retained occurrence of the step's canonical edge across the whole pass, in
// global step order — the H(· ∈ S) indicator of the pooled HT estimator;
// edgeFirstW flags first retained occurrences within the owning walker, the
// indicator of the per-walker sub-estimates behind the confidence intervals
// (nil for serial trajectories).
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
	// retained count (nil for serial trajectories).
	incl, inclW []float64
	// invDeg[i] is 1/d(u_i), shared by every pair's re-weighted estimator.
	invDeg []float64
}

// OccurrenceIndex groups the trajectory's arrivals by node: Nodes lists the
// distinct arrival nodes in first-visit order, and node j's occurrences are
// the index range Off[j]..Off[j+1] into the Walker / Pos columns (owning
// walker and walker-local sample position, in global step order — so each
// node's occurrences are sorted by walker, then by position). Collision
// counting (sizeest) derives its same-node pair counts from this index
// instead of rebuilding per-walker position maps on every replay; the
// counts are integer sums over unordered pairs, so the grouping changes
// no result bits.
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

// buildCommonNeighbors counts each step's endpoint-common neighbors. With a
// bounded node universe it runs an epoch-stamped membership scan — two flat
// passes per friend list instead of a branchy sorted merge — and because the
// prev list at step i+1 is exactly step i's friend list, each list is marked
// once. The count is an integer either way, so the algorithm choice changes
// no result bits.
func buildCommonNeighbors(t *Trajectory) []int32 {
	if !t.HasStarts() {
		return nil
	}
	S := t.Samples()
	W := t.NumWalkers()
	cn := make([]int32, S)
	dense := denseScratch(t.NumNodes, len(t.arena))
	if dense {
		// Arena entries outside [0, NumNodes) would overflow the stamp
		// array; fall back to merging if any exist (a malformed header).
		for _, v := range t.arena {
			if int(v) < 0 || int(v) >= t.NumNodes {
				dense = false
				break
			}
		}
	}
	if dense {
		stamp := make([]int32, t.NumNodes)
		for i := range stamp {
			stamp[i] = -1
		}
		epoch := int32(0)
		for w := 0; w < W; w++ {
			for _, v := range t.StartNeighbors(w) {
				stamp[v] = epoch
			}
			lo, hi := t.WalkerSpan(w)
			for i := lo; i < hi; i++ {
				nbrs := t.arena[t.nbrOff[i]:t.nbrOff[i+1]]
				c := int32(0)
				for _, v := range nbrs {
					if stamp[v] == epoch {
						c++
					}
				}
				cn[i] = c
				epoch++
				for _, v := range nbrs {
					stamp[v] = epoch
				}
			}
			epoch++
		}
		return cn
	}
	for w := 0; w < W; w++ {
		prev := t.StartNeighbors(w)
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			nbrs := t.arena[t.nbrOff[i]:t.nbrOff[i+1]]
			cn[i] = int32(commonSorted(prev, nbrs))
			prev = nbrs
		}
	}
	return cn
}

// commonSorted merge-counts the intersection of two sorted node lists.
func commonSorted(nu, nv []graph.Node) int {
	common, i, j := 0, 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] < nv[j]:
			i++
		case nu[i] > nv[j]:
			j++
		default:
			common++
			i++
			j++
		}
	}
	return common
}

// thinStride is the step stride of the HT-retained samples: every ThinGap-th
// step of each walker, counted from its first.
func (t *Trajectory) thinStride() int { return max(t.ThinGap, 1) }

// buildNSCols replays the edge dedup the NeighborSample HT estimators would
// do over the retained steps and freezes the outcome into flag columns.
func buildNSCols(t *Trajectory) *nsCols {
	S := t.Samples()
	c := &nsCols{edgeFirst: make([]bool, S)}
	if t.Walkers > 1 {
		c.edgeFirstW = make([]bool, S)
	}
	seen := make(map[graph.Edge]struct{}, S)
	for w := 0; w < t.NumWalkers(); w++ {
		lo, hi := t.WalkerSpan(w)
		var seenW map[graph.Edge]struct{}
		if c.edgeFirstW != nil {
			seenW = make(map[graph.Edge]struct{}, hi-lo)
		}
		for i := lo; i < hi; i += t.thinStride() {
			e := graph.Edge{U: t.prev[i], V: t.node[i]}.Canonical()
			c.edgeFirst[i] = firstSeen(seen, e)
			if seenW != nil {
				c.edgeFirstW[i] = firstSeen(seenW, e)
			}
		}
	}
	return c
}

// firstSeen inserts e into seen and reports whether it was new.
func firstSeen(seen map[graph.Edge]struct{}, e graph.Edge) bool {
	if _, dup := seen[e]; dup {
		return false
	}
	seen[e] = struct{}{}
	return true
}

// buildNECols scans the step columns once for the NeighborExploration
// columns.
func buildNECols(t *Trajectory) *neCols {
	S := t.Samples()
	W := t.NumWalkers()
	serial := t.Walkers <= 1
	c := &neCols{
		nodeFirst:     make([]bool, S),
		nodeFirstAllW: make([]bool, S),
		incl:          make([]float64, S),
		invDeg:        make([]float64, S),
	}
	if !serial {
		c.nodeFirstW = make([]bool, S)
		c.inclW = make([]float64, S)
	}
	// Retained-sample counts, exactly as the aggregators size them: the
	// pooled count feeds incl, the per-walker counts feed inclW.
	retTotal := 0
	retW := make([]int, W)
	for w := range retW {
		retW[w] = retainedCount(t.WalkerLen(w), t.ThinGap)
		retTotal += retW[w]
	}
	numEdges := float64(t.NumEdges)
	seen := newNodeSet(t.NumNodes)
	for w := 0; w < W; w++ {
		lo, hi := t.WalkerSpan(w)
		seenAll := newNodeSet(t.NumNodes)
		var seenW *nodeSet
		if !serial {
			seenW = newNodeSet(t.NumNodes)
		}
		for i := lo; i < hi; i++ {
			u, d := t.node[i], float64(t.deg[i])
			c.invDeg[i] = 1 / d
			c.nodeFirstAllW[i] = seenAll.add(u)
			if (i-lo)%t.thinStride() != 0 {
				continue
			}
			c.nodeFirst[i] = seen.add(u)
			c.incl[i] = estimate.InclusionProbability(d/(2*numEdges), retTotal)
			if !serial {
				c.nodeFirstW[i] = seenW.add(u)
				c.inclW[i] = estimate.InclusionProbability(d/(2*numEdges), retW[w])
			}
		}
	}
	return c
}

// buildOccurrences assembles the node-occurrence index in two passes: the
// first assigns each distinct arrival node a group in first-visit order and
// counts occurrences, the second fills the grouped columns.
func buildOccurrences(t *Trajectory) *OccurrenceIndex {
	S := t.Samples()
	W := t.NumWalkers()
	slotOf := func() func(u graph.Node, assign bool) int32 {
		if denseScratch(t.NumNodes, S) {
			slots := make([]int32, t.NumNodes)
			for i := range slots {
				slots[i] = -1
			}
			next := int32(0)
			return func(u graph.Node, assign bool) int32 {
				if s := slots[u]; s >= 0 || !assign {
					return s
				}
				slots[u] = next
				next++
				return slots[u]
			}
		}
		m := make(map[graph.Node]int32, S)
		return func(u graph.Node, assign bool) int32 {
			if s, ok := m[u]; ok {
				return s
			}
			if !assign {
				return -1
			}
			s := int32(len(m))
			m[u] = s
			return s
		}
	}()

	occ := &OccurrenceIndex{
		Walker: make([]int32, S),
		Pos:    make([]int32, S),
	}
	counts := make([]int32, 0, S)
	for _, u := range t.node {
		s := slotOf(u, true)
		if int(s) == len(counts) {
			occ.Nodes = append(occ.Nodes, u)
			counts = append(counts, 0)
		}
		counts[s]++
	}
	occ.Off = make([]int32, len(counts)+1)
	for j, c := range counts {
		occ.Off[j+1] = occ.Off[j] + c
	}
	fill := make([]int32, len(counts))
	copy(fill, occ.Off[:len(counts)])
	for w := 0; w < W; w++ {
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			s := slotOf(t.node[i], false)
			at := fill[s]
			fill[s]++
			occ.Walker[at] = int32(w)
			occ.Pos[at] = int32(i - lo)
		}
	}
	return occ
}
