package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/osn"
)

// This file implements the shared-trajectory multi-query engine: one walk's
// sample stream is recorded once (record.go) and replayed through the
// paper's estimators for arbitrarily many label pairs. The estimators weigh
// samples by label-pair membership only at aggregation time, and label reads
// are free in the access model (a friend-list response carries profile
// snippets), so P pairs cost one walk's API calls instead of P walks'.
//
// Charging: a plain recording bills one call per distinct node the walk
// stands on, because each step buys the arrived-at node's friend list ahead
// of the next step — exactly what NeighborExploration bills under the
// ExploreFree cost model. NeighborSample and NeighborExploration are
// themselves a recording plus a one-pair replay; no live walk loop remains.
// Their recordings differ from a plain one only in billing: NeighborSample's
// leaves out of its budget checks and its bill the friend list bought ahead
// for each walker's current arrival, and NeighborExploration's charges the
// Options.Cost surcharge while recording. A plain recording replayed through
// EstimateManyPairs therefore matches NeighborExploration (ExploreFree) bit
// for bit, and matches NeighborSample in sample-driven mode in every field
// but the bill, which includes the last arrival's list.
//
// Storage is columnar: instead of per-step structs carrying their own
// neighbor slices, a Trajectory holds flat prev/node/degree arrays, one
// shared neighbor-ID arena with per-step offsets, and per-walker extents.
// Replays iterate cache-friendly columns and allocate nothing; the .osnt
// store (internal/store) decodes straight into the same columns.

// TrajStart is one walker's post-burn-in starting state: the node its first
// recorded step moves from, with that node's degree and friend list.
// Recording it lets replays that need BOTH endpoints' neighborhoods (e.g.
// triangle counting) process the first step too. Fetching it prepays the
// first step's neighbor-list charge, so the recording bill is unchanged.
type TrajStart struct {
	// Node is the walker's position when sampling began.
	Node graph.Node
	// Degree is d(Node).
	Degree int
	// Neighbors is Node's friend list. Shared with the trajectory's arena
	// (or, during recording, the session's response store); must not be
	// modified.
	Neighbors []graph.Node
}

// TrajStep is one recorded post-burn-in walk transition: the traversed edge,
// plus the arrived-at node's degree and friend list so every estimator of
// both algorithms can be replayed without further API access.
type TrajStep struct {
	// Prev is the node the walk moved from.
	Prev graph.Node
	// Node is the node the walk arrived at.
	Node graph.Node
	// Degree is d(Node).
	Degree int
	// Neighbors is Node's friend list. The slice is shared with the
	// trajectory's arena (or, during recording, the session's response
	// store) and must not be modified.
	Neighbors []graph.Node
}

// LabelReader is the free slice of the access model a replay needs: label
// reads cost nothing (see the osn package comment), so replaying a
// trajectory for another pair — or another task kind entirely — charges no
// API calls.
type LabelReader interface {
	Labels(u graph.Node) []graph.Label
	HasLabel(u graph.Node, l graph.Label) bool
}

// Trajectory is a recorded multi-walker sample stream, reusable across label
// pairs. It is immutable once recorded: replays only read it, so one
// Trajectory may serve concurrent queries.
//
// The sample stream lives in flat columns — prev[i], node[i], degree[i] for
// global step index i, with walker w owning the contiguous index range
// WalkerSpan(w). Every neighbor list (the W start lists first, then the step
// lists in walker-major step order) is a subslice of one shared arena, so a
// loaded or recorded trajectory is a fixed number of allocations regardless
// of length, and replays touch memory sequentially.
type Trajectory struct {
	// ext[w]..ext[w+1] is walker w's global step-index range; len W+1.
	ext []int64
	// prev, node and deg are the step columns; len Samples().
	prev []graph.Node
	node []graph.Node
	deg  []int32
	// nbrOff[i]..nbrOff[i+1] is step i's neighbor range in arena; len S+1.
	// nbrOff[0] == startOff[W]: step lists follow the start lists.
	nbrOff []int64
	// startNode, startDeg and startOff are the per-walker start columns;
	// startOff[w]..startOff[w+1] is start w's neighbor range in arena.
	startNode []graph.Node
	startDeg  []int32
	startOff  []int64
	// arena holds every neighbor list back to back: the W start lists in
	// walker order, then the step lists in walker-major step order.
	arena []graph.Node

	// Walkers is the fleet size the trajectory was recorded with.
	Walkers int
	// APICalls is the total billed sampling cost of the recording (summed
	// per-walker bills for a fleet recording) — the one-time price every
	// replayed pair shares.
	APICalls int64
	// PerWalkerCalls is each walker's billed share of APICalls.
	PerWalkerCalls []int64
	// NumNodes and NumEdges snapshot the graph priors the estimators scale by.
	NumNodes int
	NumEdges int64
	// ThinGap is the recording's HT thinning gap (see Options.ThinGap).
	ThinGap int
	// BurnIn is the burn-in the walk paid before sampling began. Replays
	// never re-walk it, but it identifies the recording recipe: a persisted
	// trajectory recorded under a different burn-in is not the trajectory a
	// fresh recording would produce.
	BurnIn int
	// BudgetDriven records how k was interpreted during recording.
	BudgetDriven bool
	// GraphVersion and GraphFingerprint identify the exact graph version the
	// trajectory was recorded against (see graph.Version / Fingerprint).
	// Zero for recordings made outside the versioned serving path.
	GraphVersion     uint64
	GraphFingerprint uint64

	labels  LabelReader
	labelH  *labelMemo
	replayH *replayHolder
}

// NumWalkers returns the number of recorded walker streams.
func (t *Trajectory) NumWalkers() int {
	if len(t.ext) == 0 {
		return 0
	}
	return len(t.ext) - 1
}

// Samples returns the total recorded sample count across walkers.
func (t *Trajectory) Samples() int { return len(t.prev) }

// WalkerSpan returns the half-open global step-index range [lo, hi) owned by
// walker w. Step accessors take global indices from this range.
func (t *Trajectory) WalkerSpan(w int) (lo, hi int) {
	return int(t.ext[w]), int(t.ext[w+1])
}

// WalkerLen returns walker w's recorded sample count.
func (t *Trajectory) WalkerLen(w int) int { return int(t.ext[w+1] - t.ext[w]) }

// StepPrev returns the node global step i moved from.
func (t *Trajectory) StepPrev(i int) graph.Node { return t.prev[i] }

// StepNode returns the node global step i arrived at.
func (t *Trajectory) StepNode(i int) graph.Node { return t.node[i] }

// StepDegree returns d(StepNode(i)).
func (t *Trajectory) StepDegree(i int) int { return int(t.deg[i]) }

// StepNeighbors returns step i's recorded friend list as a view into the
// shared arena; it must not be modified.
func (t *Trajectory) StepNeighbors(i int) []graph.Node {
	return t.arena[t.nbrOff[i]:t.nbrOff[i+1]]
}

// HasStarts reports whether the trajectory records one start state per
// walker. Replays that need both endpoints of each walker's first edge
// (triangle counting) require them.
func (t *Trajectory) HasStarts() bool { return len(t.startNode) == t.NumWalkers() }

// StartNode returns walker w's post-burn-in start position.
func (t *Trajectory) StartNode(w int) graph.Node { return t.startNode[w] }

// StartDegree returns d(StartNode(w)).
func (t *Trajectory) StartDegree(w int) int { return int(t.startDeg[w]) }

// StartNeighbors returns walker w's start friend list as an arena view; it
// must not be modified.
func (t *Trajectory) StartNeighbors(w int) []graph.Node {
	return t.arena[t.startOff[w]:t.startOff[w+1]]
}

// Labels exposes the free label-read surface a replay may consult. The
// estimation tasks registered in other packages (size, motif) replay through
// it without touching the metered API.
func (t *Trajectory) Labels() LabelReader { return t.labels }

// BindLabels attaches the label-read surface a replay of t consults. It is
// the import hook of the trajectory persistence layer (internal/store): a
// Trajectory deserialized from a .osnt file is rebuilt field by field and
// then bound to the labels the file carries (or to the served graph, which
// recorded them in the first place). Binding replaces the reader wholesale;
// it must cover every node the trajectory references, or replays will
// silently treat the missing nodes as unlabeled. It also discards the
// memoized label columns (they are derived from the reader), so it must not
// race with in-flight replays.
func (t *Trajectory) BindLabels(lr LabelReader) {
	t.labels = lr
	t.labelH = &labelMemo{}
	// The replay columns derive from the step columns alone, not from
	// labels, so a rebind keeps them — but a literal-built trajectory that
	// never went through SetData gets its holder here.
	if t.replayH == nil {
		t.replayH = &replayHolder{}
	}
}

// NewTrajectoryFromSteps assembles the columnar sample stream from row-form
// recorded steps, copying every neighbor list into one shared arena (the
// rows may alias session-owned response slices; the result is
// self-contained). Metadata fields (Walkers, APICalls, ...) are left zero
// for the caller to fill, and labels are bound with BindLabels.
func NewTrajectoryFromSteps(perSteps [][]TrajStep, perStarts []TrajStart) *Trajectory {
	W := len(perSteps)
	S := 0
	nbrs := 0
	for _, start := range perStarts {
		nbrs += len(start.Neighbors)
	}
	for _, steps := range perSteps {
		S += len(steps)
		for _, st := range steps {
			nbrs += len(st.Neighbors)
		}
	}
	t := &Trajectory{
		ext:       make([]int64, W+1),
		prev:      make([]graph.Node, S),
		node:      make([]graph.Node, S),
		deg:       make([]int32, S),
		nbrOff:    make([]int64, S+1),
		startNode: make([]graph.Node, len(perStarts)),
		startDeg:  make([]int32, len(perStarts)),
		startOff:  make([]int64, len(perStarts)+1),
		arena:     make([]graph.Node, 0, nbrs),
		labelH:    &labelMemo{},
		replayH:   &replayHolder{},
	}
	for w, start := range perStarts {
		t.startOff[w] = int64(len(t.arena))
		t.arena = append(t.arena, start.Neighbors...)
		t.startNode[w] = start.Node
		t.startDeg[w] = int32(start.Degree)
	}
	t.startOff[len(perStarts)] = int64(len(t.arena))
	i := 0
	for w, steps := range perSteps {
		t.ext[w] = int64(i)
		for _, st := range steps {
			t.prev[i] = st.Prev
			t.node[i] = st.Node
			t.deg[i] = int32(st.Degree)
			t.nbrOff[i] = int64(len(t.arena))
			t.arena = append(t.arena, st.Neighbors...)
			i++
		}
	}
	t.ext[W] = int64(i)
	t.nbrOff[S] = int64(len(t.arena))
	return t
}

// TrajectoryData is the raw columnar layout of a Trajectory — the exchange
// format between the core and the .osnt persistence layer, which decodes a
// file straight into these columns (no per-step allocation) and hands them
// over wholesale with SetData.
type TrajectoryData struct {
	// Ext is the per-walker extent prefix (len W+1, Ext[0] == 0): walker w
	// owns global steps Ext[w]..Ext[w+1].
	Ext []int64
	// Prev, Node and Degree are the step columns (len S).
	Prev   []graph.Node
	Node   []graph.Node
	Degree []int32
	// NbrOff is the per-step arena offset prefix (len S+1); NbrOff[0] must
	// equal StartOff[W] (step lists follow the start lists in the arena).
	NbrOff []int64
	// StartNode, StartDegree and StartOff are the per-walker start columns
	// (len W; StartOff has len W+1 with StartOff[0] == 0).
	StartNode   []graph.Node
	StartDegree []int32
	StartOff    []int64
	// Arena holds every neighbor list back to back: start lists first, then
	// step lists in walker-major step order.
	Arena []graph.Node
}

// Data returns zero-copy views of the trajectory's columns. The views are
// read-only; mutating them breaks the immutability invariant replays rely on.
func (t *Trajectory) Data() TrajectoryData {
	return TrajectoryData{
		Ext:         t.ext,
		Prev:        t.prev,
		Node:        t.node,
		Degree:      t.deg,
		NbrOff:      t.nbrOff,
		StartNode:   t.startNode,
		StartDegree: t.startDeg,
		StartOff:    t.startOff,
		Arena:       t.arena,
	}
}

// SetData installs raw columns into t, taking ownership of every slice. It
// validates the structural invariants (consistent lengths, monotone extents
// and offsets, arena coverage) but not graph-level semantics — the store
// layer checks node ranges against its header before calling this.
func (t *Trajectory) SetData(d TrajectoryData) error {
	W := len(d.StartNode)
	S := len(d.Prev)
	switch {
	case len(d.Node) != S || len(d.Degree) != S:
		return fmt.Errorf("core: trajectory data: step columns disagree (%d/%d/%d)", S, len(d.Node), len(d.Degree))
	case len(d.NbrOff) != S+1:
		return fmt.Errorf("core: trajectory data: NbrOff len %d, want %d", len(d.NbrOff), S+1)
	case len(d.StartDegree) != W:
		return fmt.Errorf("core: trajectory data: start columns disagree (%d/%d)", W, len(d.StartDegree))
	case len(d.StartOff) != W+1:
		return fmt.Errorf("core: trajectory data: StartOff len %d, want %d", len(d.StartOff), W+1)
	case len(d.Ext) != W+1:
		return fmt.Errorf("core: trajectory data: Ext len %d, want %d", len(d.Ext), W+1)
	case d.Ext[0] != 0 || d.Ext[W] != int64(S):
		return fmt.Errorf("core: trajectory data: Ext spans [%d,%d], want [0,%d]", d.Ext[0], d.Ext[W], S)
	case d.StartOff[0] != 0 || d.NbrOff[0] != d.StartOff[W] || d.NbrOff[S] != int64(len(d.Arena)):
		return fmt.Errorf("core: trajectory data: arena offsets do not tile the arena")
	}
	for w := 0; w < W; w++ {
		if d.Ext[w+1] < d.Ext[w] || d.StartOff[w+1] < d.StartOff[w] {
			return fmt.Errorf("core: trajectory data: walker %d extent or start offset decreases", w)
		}
	}
	for i := 0; i < S; i++ {
		if d.NbrOff[i+1] < d.NbrOff[i] {
			return fmt.Errorf("core: trajectory data: step %d neighbor offset decreases", i)
		}
	}
	t.ext = d.Ext
	t.prev = d.Prev
	t.node = d.Node
	t.deg = d.Degree
	t.nbrOff = d.NbrOff
	t.startNode = d.StartNode
	t.startDeg = d.StartDegree
	t.startOff = d.StartOff
	t.arena = d.Arena
	t.labelH = &labelMemo{}
	t.replayH = &replayHolder{}
	return nil
}

// PairEstimates is one label pair's full replay: every estimator of both
// algorithms computed from the shared trajectory. The APICalls fields of both
// results carry the trajectory's one-time recording cost, not a per-pair
// charge.
type PairEstimates struct {
	Pair graph.LabelPair
	NS   NeighborSampleResult
	NE   NeighborExplorationResult
}

// The paper's five estimators of F, by the names answers and tables give
// them: NeighborSample HH and HT (Eqs. 2–3) and NeighborExploration HH, HT
// and RW (Eqs. 11, 13, 19).
const (
	NeighborSampleHH      = "NeighborSample-HH"
	NeighborSampleHT      = "NeighborSample-HT"
	NeighborExplorationHH = "NeighborExploration-HH"
	NeighborExplorationHT = "NeighborExploration-HT"
	NeighborExplorationRW = "NeighborExploration-RW"
)

// MethodNames returns the five estimator names in answer order.
func MethodNames() []string {
	return []string{NeighborSampleHH, NeighborSampleHT, NeighborExplorationHH, NeighborExplorationHT, NeighborExplorationRW}
}

// Estimates returns the pair's five estimates keyed by method name.
func (pe *PairEstimates) Estimates() map[string]float64 {
	return map[string]float64{
		NeighborSampleHH:      pe.NS.HH,
		NeighborSampleHT:      pe.NS.HT,
		NeighborExplorationHH: pe.NE.HH,
		NeighborExplorationHT: pe.NE.HT,
		NeighborExplorationRW: pe.NE.RW,
	}
}

// EstimateManyPairs replays a recorded trajectory through the paper's HH/HT
// (and, for NeighborExploration, RW) aggregators for every given label pair,
// at zero additional API cost, in one fused pass over the step columns (all
// pairs' aggregators advance together; each still receives exactly the
// sample sequence a per-pair replay would feed it). Every walker count runs
// the same aggregation (aggregate.go).
func EstimateManyPairs(t *Trajectory, pairs []graph.LabelPair) ([]PairEstimates, error) {
	if t == nil || t.Samples() == 0 {
		return nil, fmt.Errorf("core: EstimateManyPairs needs a recorded trajectory")
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: EstimateManyPairs needs at least one label pair")
	}
	out, err := replayOne(t, pairsTask{pairs: pairs})
	if err != nil {
		return nil, err
	}
	return out.([]PairEstimates), nil
}

// estimatePair is NeighborSample and NeighborExploration: it records one
// walk under the estimator's billing rule and replays pair through that
// estimator alone.
func estimatePair(s *osn.Session, pair graph.LabelPair, k int, opts Options, bill billing, only estimators) (PairEstimates, error) {
	t, err := record(s, k, opts, bill)
	if err != nil {
		return PairEstimates{}, err
	}
	out, err := replayOne(t, pairsTask{pairs: []graph.LabelPair{pair}, only: only})
	if err != nil {
		return PairEstimates{}, err
	}
	return out.([]PairEstimates)[0], nil
}

// ReplayTargetDegree recomputes T(u) for a recorded step from the step's
// stored friend list, without any API access. The boolean reports whether
// the node carries a target label (i.e. whether NeighborExploration explores
// its neighborhood, Algorithm 2 line 4).
func ReplayTargetDegree(labels LabelReader, st TrajStep, pair graph.LabelPair) (int, bool) {
	hasT1 := labels.HasLabel(st.Node, pair.T1)
	hasT2 := labels.HasLabel(st.Node, pair.T2)
	if !hasT1 && !hasT2 {
		return 0, false
	}
	tt := 0
	for _, v := range st.Neighbors {
		if hasT1 && labels.HasLabel(v, pair.T2) {
			tt++
			continue
		}
		if hasT2 && labels.HasLabel(v, pair.T1) {
			tt++
		}
	}
	return tt, true
}
