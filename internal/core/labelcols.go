package core

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// This file builds the trajectory's label-dependent replay columns. Every
// estimator is arithmetic over the recorded walk, and label-pair membership
// only weighs each sample at aggregation time, so a replay needs from the
// labels only a few columns: per queried pair, whether each step's edge is a
// target edge (NeighborSample) and T(u) of each step's arrival node
// (NeighborExploration, labeled wedges); and the census of every label pair
// the sampled edges carry. Each column is read once through the bound
// LabelReader, on first use, and memoized on the trajectory, so a warm replay
// reads no labels at all, whatever the label count.
//
// Only what a query touches is built: a replay asks for its set of pairs'
// flag columns, T(u) columns or both (a NeighborSample-only replay never
// builds T(u)), and every missing column of the set builds in one label
// pass, whatever the set's size. At most maxMemoPairs pairs are kept per
// trajectory. A pair past the cap is computed for its replay and dropped, so
// the pair columns stay within maxMemoPairs × 5 bytes per step. The census
// is not capped: it keeps one 24-byte row per distinct label pair the
// sampled edges carry. The columns cache what the reader answers, so results
// are identical to reading labels at every step, and BindLabels discards
// them.

// maxMemoPairs caps the label pairs whose columns one trajectory memoizes.
const maxMemoPairs = 16

// labelMemo holds a trajectory's memoized label columns.
type labelMemo struct {
	// census is every label pair the sampled edges carry, sorted as a census
	// answer (descending by estimate).
	census lazyCol[[]PairEstimate]
	// mu guards pairs and the pair columns' builds: a replay that finds a
	// column of its set missing builds them all while holding it, so
	// concurrent replays share one build per column.
	mu    sync.Mutex
	pairs map[graph.LabelPair]*pairCols // keyed by canonical pair
}

// pairCols are one canonical label pair's columns, each nil until built.
type pairCols struct {
	// target[i] reports whether step i's edge carries the pair.
	target []bool
	// tt[i] is T(node_i) for the pair, or -1 where the node carries neither
	// label (NeighborExploration does not explore it).
	tt []int32
}

// labelColumns returns the trajectory's memo. Trajectories assembled
// without SetData, a recording or BindLabels get an unshared one.
func (t *Trajectory) labelColumns() *labelMemo {
	if t.labelH == nil {
		return &labelMemo{}
	}
	return t.labelH
}

// pairLabelColumns points every ps[k].target (when target is set) and
// ps[k].tt (when tt is set) at the column of ps[k].pair. Orientation and
// repeats in the set share one column. When every asked-for column is
// memoized this allocates nothing and reads no labels. Otherwise each pair
// takes the memoized holder, a newly memoized one while fewer than
// maxMemoPairs pairs are kept, or past the cap an unshared one that lives
// as long as its replay; and every missing flag column builds in one pass
// over the steps, every missing T(u) column in one pass over the distinct
// arrival nodes.
func (t *Trajectory) pairLabelColumns(ps []pairReplayState, target, tt bool) {
	m := t.labelColumns()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.memoized(ps, target, tt) {
		return
	}
	cols := make([]*pairCols, len(ps))
	var flagPairs, ttPairs []graph.LabelPair
	var flagCols, ttCols []*pairCols
	for k := range ps {
		c := ps[k].pair.Canonical()
		pc := m.pairs[c]
		for j := 0; pc == nil && j < k; j++ {
			if ps[j].pair.Canonical() == c {
				pc = cols[j] // a repeat of an unshared pair
			}
		}
		if pc == nil {
			pc = &pairCols{}
			if len(m.pairs) < maxMemoPairs {
				if m.pairs == nil {
					m.pairs = make(map[graph.LabelPair]*pairCols, maxMemoPairs)
				}
				m.pairs[c] = pc
			}
		}
		cols[k] = pc
		if target && pc.target == nil && !slices.Contains(flagCols, pc) {
			flagPairs, flagCols = append(flagPairs, c), append(flagCols, pc)
		}
		if tt && pc.tt == nil && !slices.Contains(ttCols, pc) {
			ttPairs, ttCols = append(ttPairs, c), append(ttCols, pc)
		}
	}
	for j, col := range buildTargetFlags(t, flagPairs) {
		flagCols[j].target = col
	}
	for j, col := range buildTargetDegrees(t, ttPairs) {
		ttCols[j].tt = col
	}
	for k, pc := range cols {
		if target {
			ps[k].target = pc.target
		}
		if tt {
			ps[k].tt = pc.tt
		}
	}
}

// memoized points ps at memoized columns and reports whether every
// asked-for column was memoized. Callers hold m.mu.
func (m *labelMemo) memoized(ps []pairReplayState, target, tt bool) bool {
	for k := range ps {
		pc := m.pairs[ps[k].pair.Canonical()]
		if pc == nil || target && pc.target == nil || tt && pc.tt == nil {
			return false
		}
		ps[k].target, ps[k].tt = pc.target, pc.tt
	}
	return true
}

// TargetDegrees returns, for every global step i, T(StepNode(i)) for pair —
// the number of StepNode(i)'s friends that complete a target edge with it —
// or -1 where the node carries neither target label. The column is
// memoized and shared; it must not be modified.
func (t *Trajectory) TargetDegrees(pair graph.LabelPair) []int32 {
	one := [1]pairReplayState{{pair: pair}}
	t.pairLabelColumns(one[:], false, true)
	return one[0].tt
}

// buildTargetFlags builds the target-edge flag column of every pair in one
// pass over the steps: each step reads its two endpoints' labels once and
// tests the pairs against them. Membership is symmetric in the endpoints,
// so the orientation of (prev, node) is irrelevant.
func buildTargetFlags(t *Trajectory, pairs []graph.LabelPair) [][]bool {
	if len(pairs) == 0 {
		return nil
	}
	cols := make([][]bool, len(pairs))
	for k := range cols {
		cols[k] = make([]bool, len(t.prev))
	}
	lr := t.labels
	for i, a := range t.prev {
		la := lr.Labels(a)
		if len(la) == 0 {
			continue
		}
		lb := lr.Labels(t.node[i])
		if len(lb) == 0 {
			continue
		}
		for k, p := range pairs {
			cols[k][i] = slices.Contains(la, p.T1) && slices.Contains(lb, p.T2) ||
				slices.Contains(la, p.T2) && slices.Contains(lb, p.T1)
		}
	}
	return cols
}

// buildTargetDegrees builds the T(u) column of every pair in one pass over
// the distinct arrival nodes, through the occurrence index. Each node reads
// its own labels and each friend's labels once, counts T(u) for only the
// pairs whose labels it carries (the pairs it explores), and spreads the
// counts over its steps. Each node's friend list is stored once and every
// one of its steps views it, so every column holds T(u) as the step's own
// friend list gives it.
func buildTargetDegrees(t *Trajectory, pairs []graph.LabelPair) [][]int32 {
	if len(pairs) == 0 {
		return nil
	}
	cols := make([][]int32, len(pairs))
	for k := range cols {
		cols[k] = make([]int32, t.Samples())
	}
	occ := t.Occurrences()
	lr := t.labels
	at := func(o int32) int { return int(t.ext[occ.Walker[o]]) + int(occ.Pos[o]) }
	// For the current node: the pairs it explores, whether it carries each
	// pair's T1 and T2, and each pair's T(u), -1 for an unexplored pair.
	explores := make([]int, 0, len(pairs))
	has1, has2 := make([]bool, len(pairs)), make([]bool, len(pairs))
	tu := make([]int32, len(pairs))
	for j, u := range occ.Nodes {
		lo, hi := occ.Off[j], occ.Off[j+1]
		lu := lr.Labels(u)
		explores = explores[:0]
		for k, p := range pairs {
			has1[k], has2[k] = slices.Contains(lu, p.T1), slices.Contains(lu, p.T2)
			tu[k] = -1
			if has1[k] || has2[k] {
				explores = append(explores, k)
				tu[k] = 0
			}
		}
		if len(explores) > 0 {
			for _, v := range t.StepNeighbors(at(lo)) {
				lv := lr.Labels(v)
				if len(lv) == 0 {
					continue
				}
				for _, k := range explores {
					if has1[k] && slices.Contains(lv, pairs[k].T2) || has2[k] && slices.Contains(lv, pairs[k].T1) {
						tu[k]++
					}
				}
			}
		}
		for o := lo; o < hi; o++ {
			i := at(o)
			for k, d := range tu {
				cols[k][i] = d
			}
		}
	}
	return cols
}

// censusRows returns the trajectory's full census: every label pair the
// sampled edges carry, with its hit count and |E|·hits/k estimate, sorted
// descending by estimate. The rows are memoized and shared; callers copy
// what they return.
func (t *Trajectory) censusRows() []PairEstimate {
	return t.labelColumns().census.get(func() []PairEstimate {
		hits := make(map[graph.LabelPair]int)
		seen := make(map[graph.LabelPair]struct{}, 8)
		for i, u := range t.prev {
			censusHits(t.labels, u, t.node[i], hits, seen)
		}
		numEdges, samples := float64(t.NumEdges), float64(t.Samples())
		rows := make([]PairEstimate, 0, len(hits))
		for p, h := range hits {
			rows = append(rows, PairEstimate{Pair: p, Estimate: numEdges * float64(h) / samples, Hits: h})
		}
		sortPairEstimates(rows)
		return rows
	})
}
