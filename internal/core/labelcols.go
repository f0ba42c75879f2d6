package core

import (
	"sort"

	"repro/internal/graph"
)

// This file builds the trajectory's dense label-index columns: one uint64
// bitmask per step endpoint, plus each step's neighbor masks grouped into
// runs, over the (at most 64) distinct labels the trajectory's nodes
// actually carry. Replay hot loops then test label membership with one AND
// instead of an interface call per node — the generalization of the store's
// dense label index to every label and every column. The columns are derived
// data: they cache what the bound LabelReader answers, so results are
// identical whether a replay runs masked or through the reader, and
// BindLabels discards them. Trajectories over more than 64 distinct labels
// (every benchmark workload's) get no columns and replay through the reader;
// so do the one-pair replays behind NeighborSample and NeighborExploration,
// which read each step's labels once and would not recoup the build.

// maskLabelLimit is the column width: trajectories referencing more distinct
// labels than fit one word fall back to the LabelReader path.
const maskLabelLimit = 64

// denseMaskMaxNodes bounds the scratch arrays used while building the
// columns; graphs past it use a map keyed by node instead.
const denseMaskMaxNodes = 1 << 24

// denseScratch decides whether an O(numNodes) build-time scratch array is
// worth allocating for a column build that touches at most touched distinct
// nodes. Small graphs always take the dense array (cheap, fastest); larger
// graphs take it only when the workload is within a constant factor of the
// graph size, so a few-hundred-step trajectory over a million-node graph
// builds through sparse maps and the per-estimate allocation cost stays
// independent of |V|. Both paths produce identical columns — the sparse one
// is the same fallback graphs beyond denseMaskMaxNodes have always used.
func denseScratch(numNodes, touched int) bool {
	if numNodes <= 0 || numNodes > denseMaskMaxNodes {
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

// labelCols holds the precomputed mask columns.
type labelCols struct {
	// ok is false when the columns could not be built (no bound reader, or
	// more than maskLabelLimit distinct labels); callers must then use the
	// LabelReader path.
	ok bool
	// table is the sorted distinct label set; bit b of every mask stands for
	// table[b].
	table []graph.Label
	// stepPrev and stepNode are mask columns index-aligned with the
	// trajectory's prev and node columns.
	stepPrev []uint64
	stepNode []uint64

	// runVal/runCnt[runOff[i]:runOff[i+1]] are step i's neighbor masks
	// deduplicated into (mask, multiplicity) runs. Walks concentrate on
	// high-degree nodes whose neighbors repeat few distinct label sets, so
	// scanning the runs instead of the raw arena shrinks the per-pair
	// target-degree count by the average multiplicity; the counted total is
	// an integer sum and therefore identical.
	runOff []int32
	runVal []uint64
	runCnt []int32

	// comboPrev/comboNode/comboCnt aggregate the (prev, node) endpoint-mask
	// pairs of every step with their multiplicities. The census credits
	// label pairs per step from exactly these two masks, and its hit counts
	// are integer sums — so replaying the combos scaled by multiplicity
	// yields the identical census in O(distinct combos) instead of O(steps).
	comboPrev []uint64
	comboNode []uint64
	comboCnt  []int32
}

var noLabelCols = &labelCols{}

// labelColumns returns the trajectory's mask columns, building them on first
// use. Safe for concurrent replays over one trajectory; BindLabels swaps in a
// fresh holder, which is what invalidates a previously built set.
func (t *Trajectory) labelColumns() *labelCols {
	if t.colsH == nil {
		return noLabelCols
	}
	return t.colsH.get(func() *labelCols { return buildLabelCols(t) })
}

// bit returns the mask bit for label l, or 0 when no referenced node
// carries l (an all-zero test is then correct: HasLabel is false for every
// node the trajectory can mention).
func (lc *labelCols) bit(l graph.Label) uint64 {
	i := sort.Search(len(lc.table), func(i int) bool { return lc.table[i] >= l })
	if i < len(lc.table) && lc.table[i] == l {
		return 1 << uint(i)
	}
	return 0
}

// pairMasks resolves a label pair to its two mask bits.
func (lc *labelCols) pairMasks(pair graph.LabelPair) (m1, m2 uint64) {
	return lc.bit(pair.T1), lc.bit(pair.T2)
}

// maskScratch caches per-node masks during a build: dense arrays when the
// graph is small enough, a map otherwise.
type maskScratch struct {
	lr    LabelReader
	bitOf map[graph.Label]int
	dense []uint64
	seen  []bool
	m     map[graph.Node]uint64
}

func newMaskScratch(lr LabelReader, bitOf map[graph.Label]int, numNodes, touched int) *maskScratch {
	s := &maskScratch{lr: lr, bitOf: bitOf}
	if denseScratch(numNodes, touched) {
		s.dense = make([]uint64, numNodes)
		s.seen = make([]bool, numNodes)
	} else {
		s.m = make(map[graph.Node]uint64)
	}
	return s
}

func (s *maskScratch) mask(u graph.Node) uint64 {
	if s.dense != nil {
		if int(u) < len(s.seen) && s.seen[u] {
			return s.dense[u]
		}
	} else if m, ok := s.m[u]; ok {
		return m
	}
	var m uint64
	for _, l := range s.lr.Labels(u) {
		if b, ok := s.bitOf[l]; ok {
			m |= 1 << uint(b)
		}
	}
	if s.dense != nil && int(u) < len(s.seen) {
		s.dense[u] = m
		s.seen[u] = true
	} else if s.m != nil {
		s.m[u] = m
	}
	return m
}

// buildLabelCols scans every node the trajectory references, interns the
// label universe and fills the mask columns. One pass collects labels, a
// second fills the columns from a per-node mask cache.
func buildLabelCols(t *Trajectory) *labelCols {
	lr := t.labels
	if lr == nil {
		return noLabelCols
	}
	// Pass 1: the distinct labels of every referenced node.
	labels := make(map[graph.Label]struct{})
	collect := func(u graph.Node) bool {
		for _, l := range lr.Labels(u) {
			labels[l] = struct{}{}
		}
		return len(labels) <= maskLabelLimit
	}
	refs := len(t.startNode) + len(t.prev) + len(t.node) + len(t.arena)
	var visited *nodeSet
	if denseScratch(t.NumNodes, refs) {
		visited = newNodeSet(t.NumNodes)
	} else {
		visited = newNodeSet(0)
	}
	distinct := 0
	scan := func(col []graph.Node) bool {
		for _, u := range col {
			if visited.add(u) {
				distinct++
				if !collect(u) {
					return false
				}
			}
		}
		return true
	}
	if !scan(t.startNode) || !scan(t.prev) || !scan(t.node) || !scan(t.arena) {
		return noLabelCols
	}
	table := make([]graph.Label, 0, len(labels))
	for l := range labels {
		table = append(table, l)
	}
	sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
	bitOf := make(map[graph.Label]int, len(table))
	for i, l := range table {
		bitOf[l] = i
	}

	// Pass 2: fill the columns from the cached per-node masks. Pass 1 knows
	// exactly how many distinct nodes the trajectory references, so the
	// dense-vs-sparse choice here is sharper than the refs upper bound.
	sc := newMaskScratch(lr, bitOf, t.NumNodes, distinct)
	lc := &labelCols{
		ok:       true,
		table:    table,
		stepPrev: make([]uint64, len(t.prev)),
		stepNode: make([]uint64, len(t.node)),
	}
	for i, u := range t.prev {
		lc.stepPrev[i] = sc.mask(u)
	}
	for i, u := range t.node {
		lc.stepNode[i] = sc.mask(u)
	}

	// Pass 3: per-step neighbor-mask runs and endpoint-mask combos. The
	// dedup uses a small open-addressing table reused across steps via
	// epoch stamps: one multiply-shift hash and on average one probe per
	// neighbor, instead of a linear rescan of the step's runs so far. Past
	// the load cap new masks append as singleton runs, which only costs
	// speed, never correctness.
	S := len(t.prev)
	lc.runOff = make([]int32, S+1)
	lc.runVal = make([]uint64, 0, S)
	lc.runCnt = make([]int32, 0, S)
	const (
		runTableBits = 7
		runTableSize = 1 << runTableBits
		runTableCap  = runTableSize * 3 / 4
	)
	var runEpoch [runTableSize]int32
	var runSlot [runTableSize]int32
	combos := make(map[[2]uint64]int32)
	for i := 0; i < S; i++ {
		base := int32(len(lc.runVal))
		epoch := int32(i) + 1
		for _, v := range t.arena[t.nbrOff[i]:t.nbrOff[i+1]] {
			mv := sc.mask(v)
			if int32(len(lc.runVal))-base >= runTableCap {
				lc.runVal = append(lc.runVal, mv)
				lc.runCnt = append(lc.runCnt, 1)
				continue
			}
			h := uint32(mv*0x9E3779B97F4A7C15>>(64-runTableBits)) & (runTableSize - 1)
			for {
				if runEpoch[h] != epoch {
					runEpoch[h] = epoch
					runSlot[h] = int32(len(lc.runVal))
					lc.runVal = append(lc.runVal, mv)
					lc.runCnt = append(lc.runCnt, 1)
					break
				}
				if j := runSlot[h]; lc.runVal[j] == mv {
					lc.runCnt[j]++
					break
				}
				h = (h + 1) & (runTableSize - 1)
			}
		}
		lc.runOff[i+1] = int32(len(lc.runVal))
		combos[[2]uint64{lc.stepPrev[i], lc.stepNode[i]}]++
	}
	lc.comboPrev = make([]uint64, 0, len(combos))
	lc.comboNode = make([]uint64, 0, len(combos))
	lc.comboCnt = make([]int32, 0, len(combos))
	for c, n := range combos {
		lc.comboPrev = append(lc.comboPrev, c[0])
		lc.comboNode = append(lc.comboNode, c[1])
		lc.comboCnt = append(lc.comboCnt, n)
	}
	return lc
}

// targetDegreeRuns counts the step's neighbors carrying a target label of
// the (m1, m2) pair given the step node's own membership flags, by scanning
// the deduplicated mask runs. Identical to the per-neighbor scan: each
// neighbor's credit depends only on its mask, and the total is an integer
// sum, so grouping by mask changes nothing.
func (lc *labelCols) targetDegreeRuns(i int, hasT1, hasT2 bool, m1, m2 uint64) int {
	tt := 0
	lo, hi := lc.runOff[i], lc.runOff[i+1]
	for j := lo; j < hi; j++ {
		mv := lc.runVal[j]
		if hasT1 && mv&m2 != 0 {
			tt += int(lc.runCnt[j])
			continue
		}
		if hasT2 && mv&m1 != 0 {
			tt += int(lc.runCnt[j])
		}
	}
	return tt
}

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

// TargetDegreeAt computes T(node(i)) for a pair at global step i — the
// mask-accelerated equivalent of ReplayTargetDegree. The boolean reports
// whether the step node carries a target label.
func (t *Trajectory) TargetDegreeAt(i int, pair graph.LabelPair) (int, bool) {
	lc := t.labelColumns()
	if !lc.ok {
		return ReplayTargetDegree(t.labels, TrajStep{
			Node:      t.node[i],
			Neighbors: t.arena[t.nbrOff[i]:t.nbrOff[i+1]],
		}, pair)
	}
	m1, m2 := lc.pairMasks(pair)
	nm := lc.stepNode[i]
	hasT1 := nm&m1 != 0
	hasT2 := nm&m2 != 0
	if !hasT1 && !hasT2 {
		return 0, false
	}
	return lc.targetDegreeRuns(i, hasT1, hasT2, m1, m2), true
}
