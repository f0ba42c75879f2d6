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
// Storage is columnar and node-keyed: a Trajectory holds flat
// prev/node/degree step columns and per-walker extents, and one friend list
// per distinct node the walkers stand on, in an arena ordered by node ID.
// A walk revisits nodes in proportion to their degree, so storing a list at
// every step would store the hubs' long lists many times over; within one
// recording every visit of a node reads the same crawl-cache response, so
// one copy serves them all. Replays iterate cache-friendly columns and
// allocate nothing; the .osnt store (internal/store) decodes straight into
// the same columns.

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
// WalkerSpan(w). Each walker's start node and every step's node has its
// friend list stored once, in an arena ordered by node ID; a step's or a
// start's list is a view of its node's list. A loaded or recorded
// trajectory is a fixed number of allocations regardless of length, and
// its lists take at most 2|E| entries whatever the budget.
type Trajectory struct {
	// ext[w]..ext[w+1] is walker w's global step-index range; len W+1.
	ext []int64
	// prev, node and deg are the step columns; len Samples(). stepList[i]
	// is the index of node[i]'s friend list in listNode.
	prev     []graph.Node
	node     []graph.Node
	deg      []int32
	stepList []int32
	// startNode, startDeg and startList are the per-walker start columns.
	startNode []graph.Node
	startDeg  []int32
	startList []int32
	// listNode holds every start and step node once, ascending;
	// listOff[j]..listOff[j+1] is listNode[j]'s friend list in arena.
	listNode []graph.Node
	listOff  []int64
	arena    []graph.Node

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

// StepNeighbors returns step i's recorded friend list, a view of its node's
// list in the arena; it must not be modified.
func (t *Trajectory) StepNeighbors(i int) []graph.Node { return t.list(t.stepList[i]) }

// HasStarts reports whether the trajectory records one start state per
// walker. Replays that need both endpoints of each walker's first edge
// (triangle counting) require them.
func (t *Trajectory) HasStarts() bool { return len(t.startNode) == t.NumWalkers() }

// StartNode returns walker w's post-burn-in start position.
func (t *Trajectory) StartNode(w int) graph.Node { return t.startNode[w] }

// StartDegree returns d(StartNode(w)).
func (t *Trajectory) StartDegree(w int) int { return int(t.startDeg[w]) }

// StartNeighbors returns walker w's start friend list, a view of its node's
// list in the arena; it must not be modified.
func (t *Trajectory) StartNeighbors(w int) []graph.Node { return t.list(t.startList[w]) }

// list returns the arena view of friend list j.
func (t *Trajectory) list(j int32) []graph.Node { return t.arena[t.listOff[j]:t.listOff[j+1]] }

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

// TrajectoryData is the raw columnar layout of a Trajectory — the exchange
// format between the core and the .osnt persistence layer, which decodes a
// file straight into these columns (no per-step allocation) and hands them
// over wholesale with SetData.
type TrajectoryData struct {
	// Ext is the per-walker extent prefix (len W+1, Ext[0] == 0): walker w
	// owns global steps Ext[w]..Ext[w+1].
	Ext []int64
	// Prev, Node and Degree are the step columns (len S); StepList[i] is
	// the index in ListNode of Node[i]'s friend list.
	Prev     []graph.Node
	Node     []graph.Node
	Degree   []int32
	StepList []int32
	// StartNode, StartDegree and StartList are the per-walker start columns
	// (len W), StartList indexing ListNode as StepList does.
	StartNode   []graph.Node
	StartDegree []int32
	StartList   []int32
	// ListNode holds the nodes that have a friend list, strictly ascending;
	// ListOff (len len(ListNode)+1, ListOff[0] == 0) tiles Arena into their
	// lists, ListNode[j]'s at Arena[ListOff[j]:ListOff[j+1]].
	ListNode []graph.Node
	ListOff  []int64
	Arena    []graph.Node
}

// Data returns zero-copy views of the trajectory's columns. The views are
// read-only; mutating them breaks the immutability invariant replays rely on.
func (t *Trajectory) Data() TrajectoryData {
	return TrajectoryData{
		Ext:         t.ext,
		Prev:        t.prev,
		Node:        t.node,
		Degree:      t.deg,
		StepList:    t.stepList,
		StartNode:   t.startNode,
		StartDegree: t.startDeg,
		StartList:   t.startList,
		ListNode:    t.listNode,
		ListOff:     t.listOff,
		Arena:       t.arena,
	}
}

// SetData installs raw columns into t, taking ownership of every slice. It
// validates the structural invariants — consistent lengths, monotone
// extents and offsets tiling the arena, list nodes strictly ascending, and
// every step's and every start's list being its own node's list, as long as
// its degree — but not graph-level semantics: the store layer checks node
// ranges, the walk's chain and each list's order before calling this.
func (t *Trajectory) SetData(d TrajectoryData) error {
	W := len(d.StartNode)
	S := len(d.Prev)
	L := len(d.ListNode)
	switch {
	case len(d.Node) != S || len(d.Degree) != S || len(d.StepList) != S:
		return fmt.Errorf("core: trajectory data: step columns disagree (%d/%d/%d/%d)", S, len(d.Node), len(d.Degree), len(d.StepList))
	case len(d.StartDegree) != W || len(d.StartList) != W:
		return fmt.Errorf("core: trajectory data: start columns disagree (%d/%d/%d)", W, len(d.StartDegree), len(d.StartList))
	case len(d.Ext) != W+1:
		return fmt.Errorf("core: trajectory data: Ext len %d, want %d", len(d.Ext), W+1)
	case d.Ext[0] != 0 || d.Ext[W] != int64(S):
		return fmt.Errorf("core: trajectory data: Ext spans [%d,%d], want [0,%d]", d.Ext[0], d.Ext[W], S)
	case len(d.ListOff) != L+1:
		return fmt.Errorf("core: trajectory data: ListOff len %d, want %d", len(d.ListOff), L+1)
	case d.ListOff[0] != 0 || d.ListOff[L] != int64(len(d.Arena)):
		return fmt.Errorf("core: trajectory data: list offsets do not tile the arena")
	}
	for w := 0; w < W; w++ {
		if d.Ext[w+1] < d.Ext[w] {
			return fmt.Errorf("core: trajectory data: walker %d extent decreases", w)
		}
	}
	for j := 0; j < L; j++ {
		if d.ListOff[j+1] < d.ListOff[j] {
			return fmt.Errorf("core: trajectory data: list %d offset decreases", j)
		}
		if j > 0 && d.ListNode[j] <= d.ListNode[j-1] {
			return fmt.Errorf("core: trajectory data: list nodes not strictly ascending at %d", j)
		}
	}
	// ownList reports why list j is not node u's list of degree entries.
	ownList := func(u graph.Node, degree int32, j int32) string {
		if j < 0 || int(j) >= L || d.ListNode[j] != u {
			return "does not refer to its node's friend list"
		}
		if d.ListOff[j+1]-d.ListOff[j] != int64(degree) {
			return fmt.Sprintf("has degree %d but a %d-entry friend list", degree, d.ListOff[j+1]-d.ListOff[j])
		}
		return ""
	}
	for w := 0; w < W; w++ {
		if why := ownList(d.StartNode[w], d.StartDegree[w], d.StartList[w]); why != "" {
			return fmt.Errorf("core: trajectory data: start %d at node %d %s", w, d.StartNode[w], why)
		}
	}
	for i := 0; i < S; i++ {
		if why := ownList(d.Node[i], d.Degree[i], d.StepList[i]); why != "" {
			return fmt.Errorf("core: trajectory data: step %d at node %d %s", i, d.Node[i], why)
		}
	}
	t.ext = d.Ext
	t.prev = d.Prev
	t.node = d.Node
	t.deg = d.Degree
	t.stepList = d.StepList
	t.startNode = d.StartNode
	t.startDeg = d.StartDegree
	t.startList = d.StartList
	t.listNode = d.ListNode
	t.listOff = d.ListOff
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
