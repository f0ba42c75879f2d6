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

// denseScratchMaxNodes bounds the O(numNodes) scratch arrays of the column
// builds; graphs past it use maps keyed by node instead.
const denseScratchMaxNodes = 1 << 24

// denseScratch decides whether an O(numNodes) build-time scratch array is
// worth allocating for a column build that touches at most touched distinct
// nodes. Small graphs always take the dense array (cheap, fastest); larger
// graphs take it only when the workload is within a constant factor of the
// graph size, so a few-hundred-step trajectory over a million-node graph
// builds through sparse maps and the per-estimate allocation cost stays
// independent of |V|. Both paths produce identical columns.
func denseScratch(numNodes, touched int) bool {
	if numNodes <= 0 || numNodes > denseScratchMaxNodes {
		return false
	}
	return numNodes <= denseScratchMinNodes || numNodes/denseScratchFactor <= touched
}

const (
	// denseScratchMinNodes is the graph size below which dense scratch is
	// unconditional: a few KB of arrays beat any map.
	denseScratchMinNodes = 1 << 12
	// denseScratchFactor is how many times larger than the touched-node
	// bound the graph must be before sparse scratch wins.
	denseScratchFactor = 8
)

// nodeSet is a visited-node set: a bitmap when the node universe is bounded,
// a map otherwise.
type nodeSet struct {
	bits []uint64
	m    map[graph.Node]struct{}
}

func newNodeSet(numNodes int) *nodeSet {
	if numNodes > 0 {
		return &nodeSet{bits: make([]uint64, (numNodes+63)/64)}
	}
	return &nodeSet{m: make(map[graph.Node]struct{})}
}

// add inserts u and reports whether it was new.
func (s *nodeSet) add(u graph.Node) bool {
	if s.bits != nil {
		w, b := uint(u)>>6, uint64(1)<<(uint(u)&63)
		if int(w) < len(s.bits) {
			if s.bits[w]&b != 0 {
				return false
			}
			s.bits[w] |= b
			return true
		}
	}
	if s.m == nil {
		s.m = make(map[graph.Node]struct{})
	}
	if _, ok := s.m[u]; ok {
		return false
	}
	s.m[u] = struct{}{}
	return true
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
	seen := newNodeSet(t.NumNodes)
	for w := 0; w < W; w++ {
		lo, hi := t.WalkerSpan(w)
		seenAll, seenW := newNodeSet(t.NumNodes), newNodeSet(t.NumNodes)
		for i := lo; i < hi; i++ {
			u, d := t.node[i], float64(t.deg[i])
			c.invDeg[i] = 1 / d
			c.nodeFirstAllW[i] = seenAll.add(u)
			if (i-lo)%t.thinStride() != 0 {
				continue
			}
			c.nodeFirst[i] = seen.add(u)
			c.incl[i] = estimate.InclusionProbability(d/(2*numEdges), retTotal)
			c.nodeFirstW[i] = seenW.add(u)
			c.inclW[i] = estimate.InclusionProbability(d/(2*numEdges), retW[w])
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
