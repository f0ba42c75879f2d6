// Package exact computes ground-truth graph statistics by full traversal.
// The experiment harness uses it to obtain the true target-edge count F that
// NRMSE is measured against, the per-label-pair census behind the
// label-frequency sweeps (Figures 1–2), and the exact quantities inside the
// theoretical sample-size bounds of Theorems 4.1–4.5.
package exact

import (
	"sort"

	"repro/internal/graph"
)

// CountTargetEdges returns F, the exact number of target edges for pair p:
// edges (u, v) where one endpoint has p.T1 and the other has p.T2
// (paper Section 3).
func CountTargetEdges(g *graph.Graph, p graph.LabelPair) int64 {
	var count int64
	g.Edges(func(u, v graph.Node) bool {
		if g.EdgeMatches(u, v, p) {
			count++
		}
		return true
	})
	return count
}

// PairCount is one row of the label-pair census.
type PairCount struct {
	Pair  graph.LabelPair
	Count int64
}

// LabelPairCensus counts target edges for every label pair that occurs on at
// least one edge, returned in ascending count order (the ordering the paper
// uses to pick test labels from four frequency quartiles).
//
// An edge (u, v) contributes to pair (a, b) for every a in labels(u), b in
// labels(v); the unordered pair (a, b) is counted once per edge even when it
// can be formed in both directions (matching the definition of a target
// edge, which is a predicate on the edge).
func LabelPairCensus(g *graph.Graph) []PairCount {
	counts := make(map[graph.LabelPair]int64)
	g.Edges(func(u, v graph.Node) bool {
		seen := make(map[graph.LabelPair]struct{})
		for _, a := range g.Labels(u) {
			for _, b := range g.Labels(v) {
				p := graph.LabelPair{T1: a, T2: b}.Canonical()
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					counts[p]++
				}
			}
		}
		return true
	})
	out := make([]PairCount, 0, len(counts))
	for p, c := range counts {
		out = append(out, PairCount{Pair: p, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count < out[j].Count
		}
		pi, pj := out[i].Pair, out[j].Pair
		if pi.T1 != pj.T1 {
			return pi.T1 < pj.T1
		}
		return pi.T2 < pj.T2
	})
	return out
}

// LabelFrequencies returns how many nodes carry each label.
func LabelFrequencies(g *graph.Graph) map[graph.Label]int64 {
	freq := make(map[graph.Label]int64)
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		for _, l := range g.Labels(u) {
			freq[l]++
		}
	}
	return freq
}

// MaxDegree returns the maximum degree of g (0 for an empty graph). The
// MD/GMD baseline walks need it as prior knowledge.
func MaxDegree(g *graph.Graph) int {
	max := 0
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// TargetDegrees returns T(u) for every node: the number of target edges
// incident to u. Σ_u T(u) = 2F. Used by the Theorem 4.3–4.5 bounds.
func TargetDegrees(g *graph.Graph, p graph.LabelPair) []int {
	out := make([]int, g.NumNodes())
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		out[u] = g.TargetDegree(u, p)
	}
	return out
}

// CountWedges returns the exact number of wedges (paths of length two),
// Σ_u d(u)·(d(u)-1)/2. Implemented for the paper's future-work extension to
// label-refined wedge counting.
func CountWedges(g *graph.Graph) int64 {
	var count int64
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		d := int64(g.Degree(u))
		count += d * (d - 1) / 2
	}
	return count
}

// CountTriangles returns the exact number of triangles using the standard
// forward algorithm (each triangle counted once).
func CountTriangles(g *graph.Graph) int64 {
	var count int64
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			count += countCommonAfter(g, u, v)
		}
	}
	return count
}

// countCommonAfter counts common neighbors w of u and v with w > v, by
// merging the two sorted adjacency lists.
func countCommonAfter(g *graph.Graph, u, v graph.Node) int64 {
	a, b := g.Neighbors(u), g.Neighbors(v)
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] > v {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// CountLabeledTriangles counts triangles containing at least one target edge
// for pair p — the future-work quantity ("numbers of wedges and triangles
// refined by users' labels").
func CountLabeledTriangles(g *graph.Graph, p graph.LabelPair) int64 {
	var count int64
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			a, b := g.Neighbors(u), g.Neighbors(v)
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					if w := a[i]; w > v {
						if g.EdgeMatches(u, v, p) || g.EdgeMatches(u, w, p) || g.EdgeMatches(v, w, p) {
							count++
						}
					}
					i++
					j++
				}
			}
		}
	}
	return count
}

// CountLabeledWedges counts wedges (v, u, w), v < w, whose two edges both
// are target edges for pair p.
func CountLabeledWedges(g *graph.Graph, p graph.LabelPair) int64 {
	var count int64
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		t := int64(g.TargetDegree(u, p))
		count += t * (t - 1) / 2
	}
	return count
}
