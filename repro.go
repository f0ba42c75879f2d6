// Package repro is a Go reproduction of "Counting Edges with Target Labels
// in Online Social Networks via Random Walk" (Wu, Long, Fu & Chen, EDBT
// 2018). It estimates F, the number of edges whose endpoints carry a given
// pair of target labels, over a graph reachable only through
// neighbors-of-node API calls.
//
// The package exposes the paper's two algorithms (NeighborSample and
// NeighborExploration) with their five estimators, the five baseline
// adaptations used in the paper's evaluation, the theoretical sample-size
// bounds of Theorems 4.1–4.5, synthetic OSN generators standing in for the
// paper's datasets, and the experiment harness that regenerates every table
// and figure of the evaluation.
//
// Beyond the reproduction, the library scales the estimators toward
// production use: EstimateOptions.Walkers parallelizes one estimate across
// concurrent walkers at equal API budget, EstimateManyPairs answers any
// number of label-pair queries from one recorded walk at zero extra API
// cost, and EstimateBatch generalizes that to heterogeneous workloads — one
// walk answers label-pair, graph-size (EstimateSize), census and motif
// (CountMotifs) questions through the estimation-task registry (TaskKinds).
// EstimateToPrecision adaptively extends a single walk until a target
// precision (or a hard budget cap) is hit, and SaveSnapshot/LoadSnapshot
// persist preprocessed million-node graphs in the .osnb binary format for
// millisecond loads. The recorded walk itself — the system's most
// expensive artifact — persists too: RecordTrajectory captures it,
// SaveTrajectory/LoadTrajectory round-trip it through the .osnt binary
// format, and ReplayBatch answers any mix of task kinds from it at zero
// additional API cost, bit-identical across the round trip. See
// docs/ARCHITECTURE.md for the layer map, docs/API.md for the HTTP
// service built on the same machinery, and docs/OPERATIONS.md for
// deploying it.
//
// Quick start:
//
//	g, _ := repro.GenerateStandIn("pokec", 1.0, 42)
//	res, _ := repro.EstimateTargetEdges(g, repro.LabelPair{T1: 2, T2: 51}, repro.EstimateOptions{
//		Budget: 0.05, // API calls as a fraction of |V|
//		Seed:   1,
//	})
//	fmt.Printf("estimated %d target edges with %d API calls\n", int64(res.Estimate), res.APICalls)
package repro

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/stats"
	"repro/internal/textio"
	"repro/internal/walk"
)

// Re-exported fundamental types. Downstream code uses these aliases; the
// internal packages stay implementation detail.
type (
	// Graph is an immutable labeled undirected graph in CSR form.
	Graph = graph.Graph
	// Node identifies a node (dense integers in [0, NumNodes)).
	Node = graph.Node
	// Label is an integer node label.
	Label = graph.Label
	// LabelPair is an unordered pair of target labels — the query.
	LabelPair = graph.LabelPair
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Builder accumulates edges and labels into a Graph.
	Builder = graph.Builder
)

// NewBuilder returns a graph builder over n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// GenerateStandIn builds one of the five synthetic stand-ins for the
// paper's datasets: "facebook", "googleplus", "pokec", "orkut" or
// "livejournal". Scale 1.0 is the laptop-feasible default size;
// deterministic in seed.
func GenerateStandIn(name string, scale float64, seed int64) (*Graph, error) {
	return gen.Build(gen.StandIn(name), scale, seed)
}

// StandInNames lists the available stand-in datasets.
func StandInNames() []string {
	names := make([]string, 0, 5)
	for _, s := range gen.StandIns() {
		names = append(names, string(s))
	}
	return names
}

// SaveSnapshot writes g to path in the .osnb binary snapshot format
// (versioned, checksummed CSR; see docs/API.md for the layout). The write
// is atomic: a crash mid-save never leaves a truncated snapshot behind.
// Preprocess once with SaveSnapshot, then LoadSnapshot in O(file size) on
// every subsequent run — the split that makes million-node graphs practical.
func SaveSnapshot(path string, g *Graph) error {
	return snapshot.Save(path, g)
}

// LoadSnapshot reads a .osnb snapshot written by SaveSnapshot. The graph is
// loaded exactly as saved — no largest-component extraction or other
// preprocessing is reapplied, since a snapshot is by convention already
// preprocessed.
func LoadSnapshot(path string) (*Graph, error) {
	return snapshot.Load(path)
}

// LoadGraph reads a SNAP-style edge list plus an optional label file
// (empty labelPath means unlabeled) and returns the graph's largest
// connected component, matching the paper's preprocessing. If edgePath ends
// in ".osnb" it is instead loaded as a binary snapshot via LoadSnapshot
// (labelPath must then be empty; snapshots embed their labels and skip the
// largest-component pass).
func LoadGraph(edgePath, labelPath string) (*Graph, error) {
	if filepath.Ext(edgePath) == snapshot.Ext {
		if labelPath != "" {
			return nil, fmt.Errorf("repro: %s is a binary snapshot; it embeds labels, drop the label file %s", edgePath, labelPath)
		}
		return LoadSnapshot(edgePath)
	}
	return loadTextGraph(edgePath, labelPath)
}

// loadTextGraph is the SNAP-style text loading path of LoadGraph.
func loadTextGraph(edgePath, labelPath string) (*Graph, error) {
	ef, err := os.Open(edgePath)
	if err != nil {
		return nil, fmt.Errorf("repro: opening edge list: %w", err)
	}
	defer ef.Close()
	var g *Graph
	if labelPath == "" {
		g, _, err = textio.ReadEdgeList(ef)
	} else {
		var lf *os.File
		lf, err = os.Open(labelPath)
		if err != nil {
			return nil, fmt.Errorf("repro: opening label file: %w", err)
		}
		defer lf.Close()
		g, _, err = textio.ReadLabeledGraph(ef, lf)
	}
	if err != nil {
		return nil, err
	}
	lcc, _ := graph.LargestComponent(g)
	return lcc, nil
}

// CountTargetEdgesExact computes the ground-truth F by full traversal —
// available here because the library holds the whole graph; a real crawler
// cannot do this, which is the paper's point.
func CountTargetEdgesExact(g *Graph, pair LabelPair) int64 {
	return exact.CountTargetEdges(g, pair)
}

// MixingTime computes the simple-random-walk mixing time T(eps) of g per
// the paper's Eq. 23, maximized over a small representative set of start
// nodes (see walk.DefaultMixingStarts).
func MixingTime(g *Graph, eps float64) (int, error) {
	res, err := walk.MixingTime(g, eps, walk.MixingOptions{
		MaxSteps:   20000,
		StartNodes: walk.DefaultMixingStarts(g, 4),
	})
	if err != nil {
		return 0, err
	}
	if !res.Converged {
		return res.Steps, fmt.Errorf("repro: walk did not mix within %d steps (TV=%.3g); graph may be bipartite", res.Steps, res.FinalTV)
	}
	return res.Steps, nil
}

// Bounds re-exports the Theorem 4.1–4.5 sample-size bounds.
type Bounds = core.Bounds

// TheoreticalBounds evaluates Theorems 4.1–4.5: the sample sizes at which
// each estimator is guaranteed to be an (eps, delta)-approximation of F.
func TheoreticalBounds(g *Graph, pair LabelPair, eps, delta float64) (Bounds, error) {
	return core.ComputeBounds(g, pair, estimate.Approx{Eps: eps, Delta: delta})
}

// Derive returns a child seed bound to (seed, tag); use it to split one
// experiment seed into independent streams.
func Derive(seed int64, tag string) int64 { return stats.Derive(seed, tag) }

// EstimateGraphSize estimates |V| and |E| by random walk (Katzir et al.
// collision counting plus inverse-degree weighting) — the substrate behind
// the paper's assumption (2) for OSNs whose sizes are not published. budget
// is the sample count as a fraction of the true |V| (only used to size the
// walk; the estimator itself never reads |V|). It is the two-value
// convenience over EstimateSize, which adds Walkers/Seed/Ctx control and
// returns the full diagnostics.
func EstimateGraphSize(g *Graph, budget float64, seed int64) (nodes, edges float64, err error) {
	r, err := EstimateSize(g, SizeOptions{Budget: budget, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	return r.Nodes, r.Edges, nil
}

// Baseline names re-exported for callers that want to run the EX-*
// adaptations directly.
const (
	BaselineRW   = string(baseline.RW)
	BaselineMHRW = string(baseline.MHRW)
	BaselineMDRW = string(baseline.MDRW)
	BaselineRCMH = string(baseline.RCMH)
	BaselineGMD  = string(baseline.GMD)
)
