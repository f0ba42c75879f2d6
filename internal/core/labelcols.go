package core

import (
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
// Only what a query touches is built: a pair's flag and T(u) columns build
// separately (a NeighborSample-only replay never builds T(u)), and at most
// maxMemoPairs pairs are kept per trajectory. A pair past the cap is computed
// for its replay and dropped, so the pair columns stay within maxMemoPairs ×
// 5 bytes per step. The census is not capped: it keeps one 24-byte row per
// distinct label pair the sampled edges carry. The columns cache what the
// reader answers, so results are identical to reading labels at every step,
// and BindLabels discards them.

// maxMemoPairs caps the label pairs whose columns one trajectory memoizes.
const maxMemoPairs = 16

// labelMemo holds a trajectory's memoized label columns. Concurrent replays
// share one build per column.
type labelMemo struct {
	// census is every label pair the sampled edges carry, sorted as a census
	// answer (descending by estimate).
	census lazyCol[[]PairEstimate]
	mu     sync.Mutex
	pairs  map[graph.LabelPair]*pairCols // keyed by canonical pair
}

// pairCols are one canonical label pair's columns.
type pairCols struct {
	// target[i] reports whether step i's edge carries the pair.
	target lazyCol[[]bool]
	// tt[i] is T(node_i) for the pair, or -1 where the node carries neither
	// label (NeighborExploration does not explore it).
	tt lazyCol[[]int32]
}

// labelColumns returns the trajectory's memo. Trajectories assembled
// without SetData, NewTrajectoryFromSteps or BindLabels get an unshared one.
func (t *Trajectory) labelColumns() *labelMemo {
	if t.labelH == nil {
		return &labelMemo{}
	}
	return t.labelH
}

// pairColumns returns the column holder of a canonical pair: the memoized
// one, a newly memoized one while fewer than maxMemoPairs pairs are kept, or
// past the cap an unshared one that lives as long as its replay.
func (m *labelMemo) pairColumns(pair graph.LabelPair) *pairCols {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pc, ok := m.pairs[pair]; ok {
		return pc
	}
	pc := &pairCols{}
	if len(m.pairs) < maxMemoPairs {
		if m.pairs == nil {
			m.pairs = make(map[graph.LabelPair]*pairCols, maxMemoPairs)
		}
		m.pairs[pair] = pc
	}
	return pc
}

// targetFlags returns pair's target-edge flag column. Membership is
// symmetric in the two endpoints, so the orientation of (prev, node) is
// irrelevant.
func (t *Trajectory) targetFlags(pair graph.LabelPair) []bool {
	pair = pair.Canonical()
	return t.labelColumns().pairColumns(pair).target.get(func() []bool {
		lr := t.labels
		flags := make([]bool, len(t.prev))
		for i, a := range t.prev {
			b := t.node[i]
			flags[i] = lr.HasLabel(a, pair.T1) && lr.HasLabel(b, pair.T2) || lr.HasLabel(a, pair.T2) && lr.HasLabel(b, pair.T1)
		}
		return flags
	})
}

// TargetDegrees returns, for every global step i, T(StepNode(i)) for pair —
// ReplayTargetDegree at every step — or -1 where the node carries neither
// target label. The column is memoized and shared; it must not be modified.
func (t *Trajectory) TargetDegrees(pair graph.LabelPair) []int32 {
	pair = pair.Canonical()
	return t.labelColumns().pairColumns(pair).tt.get(func() []int32 { return buildTargetDegrees(t, pair) })
}

// buildTargetDegrees computes T(u) once per distinct arrival node, through
// the occurrence index, and spreads it over the node's steps. A node's friend
// list is the same at each of its steps — one recording reads one graph
// version — so this is ReplayTargetDegree at every step.
func buildTargetDegrees(t *Trajectory, pair graph.LabelPair) []int32 {
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
