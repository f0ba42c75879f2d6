// Package graph implements the labeled undirected graph substrate that every
// other component builds on. Graphs are stored in compressed sparse row (CSR)
// form: a single offsets array and a single adjacency array, which keeps
// neighbor access allocation-free and cache-friendly — the access pattern the
// random-walk engine hits billions of times per experiment.
//
// Node labels follow the paper's model (Section 3): each node carries a set
// of integer labels (gender, location, degree, ...). An edge (u, v)
// carries label pair (a, b) if u has a and v has b, or v has a and u has b.
//
// Graphs are produced by a streaming Builder (counting-sort packing, flat
// label records — no per-node maps, so million-node graphs build in
// seconds) or adopted wholesale from pre-built arrays via NewFromCSR, the
// constructor behind the graph/snapshot binary format.
package graph

import (
	"fmt"
	"sync/atomic"
)

// Node identifies a node. Nodes are dense integers in [0, NumNodes).
type Node int32

// Label is an integer node label, matching the paper's convention of denoting
// all labels by integers.
type Label int32

// Edge is an undirected edge between two nodes. The pair is unordered;
// Canonical() returns the normalized form with U <= V.
type Edge struct {
	// U and V are the edge's endpoints, in no particular order.
	U, V Node
}

// Canonical returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// LabelPair is an unordered pair of target labels (t1, t2), the query of the
// paper's counting problem.
type LabelPair struct {
	// T1 is one queried label; the pair's labels come in no particular
	// order.
	T1 Label `json:"t1"`
	// T2 is the other queried label.
	T2 Label `json:"t2"`
}

// Pair is LabelPair under the field name answer rows embed it by: an
// embedded Pair keeps the row's .Pair field and flattens to "t1"/"t2" in
// JSON (a nil *Pair drops both keys). Embedding also promotes String, so a
// row formatted whole with %v prints only its pair.
type Pair = LabelPair

// Canonical returns the pair ordered so that T1 <= T2.
func (p LabelPair) Canonical() LabelPair {
	if p.T1 > p.T2 {
		return LabelPair{T1: p.T2, T2: p.T1}
	}
	return p
}

// String renders the pair in the paper's (a,b) notation.
func (p LabelPair) String() string { return fmt.Sprintf("(%d,%d)", p.T1, p.T2) }

// Graph is an immutable undirected labeled graph in CSR form. Build one with
// a Builder. The zero value is an empty graph.
//
// A Graph may additionally carry a delta overlay: ApplyDelta layers edge
// mutations over the base CSR without rewriting it, returning a NEW graph at
// the next version (copy-on-write — the old pointer keeps serving the old
// topology). Accessors consult the overlay before the base arrays; Compact
// folds the overlay back into a fresh CSR.
type Graph struct {
	// off has length NumNodes+1; the neighbors of node u occupy
	// adj[off[u]:off[u+1]].
	off []int64
	// adj holds each undirected edge twice (u->v and v->u), sorted per node.
	adj []Node

	// labelOff/labelVal is a CSR of the per-node label sets, sorted per node.
	labelOff []int32
	labelVal []Label

	numEdges int64

	// version counts applied delta batches; 0 for a freshly built graph.
	version uint64
	// overlay maps every node touched by an applied delta to its fully
	// merged, sorted neighbor list; nil when the graph is pure CSR. The
	// lists are immutable once the map is published.
	overlay map[Node][]Node
	// flat memoizes the merged CSR of an overlay graph for CSR()/EdgeAt.
	flat atomic.Pointer[flatCSR]
	// fp memoizes the content fingerprint (see Fingerprint).
	fp atomic.Pointer[uint64]
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int64 { return g.numEdges }

// Degree returns d(u), the number of neighbors of u.
func (g *Graph) Degree(u Node) int {
	if g.overlay != nil {
		if ns, ok := g.overlay[u]; ok {
			return len(ns)
		}
	}
	return int(g.off[u+1] - g.off[u])
}

// Neighbors returns the sorted neighbor list of u as a shared slice. Callers
// must not modify it. This is the only primitive the restricted-access OSN
// layer exposes, per the paper's API model.
func (g *Graph) Neighbors(u Node) []Node {
	if g.overlay != nil {
		if ns, ok := g.overlay[u]; ok {
			return ns
		}
	}
	return g.adj[g.off[u]:g.off[u+1]]
}

// Neighbor returns the i-th neighbor of u, 0 <= i < Degree(u).
func (g *Graph) Neighbor(u Node, i int) Node {
	if g.overlay != nil {
		if ns, ok := g.overlay[u]; ok {
			return ns[i]
		}
	}
	return g.adj[g.off[u]+int64(i)]
}

// HasEdge reports whether the undirected edge (u, v) exists, via binary
// search over the smaller endpoint's sorted adjacency list.
func (g *Graph) HasEdge(u, v Node) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == v
}

// Labels returns the sorted label set of u as a shared slice. Callers must
// not modify it.
func (g *Graph) Labels(u Node) []Label {
	return g.labelVal[g.labelOff[u]:g.labelOff[u+1]]
}

// HasLabel reports whether u carries label l.
func (g *Graph) HasLabel(u Node, l Label) bool {
	ls := g.Labels(u)
	lo, hi := 0, len(ls)
	for lo < hi {
		mid := (lo + hi) / 2
		if ls[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ls) && ls[lo] == l
}

// EdgeMatches reports whether edge (u, v) is a target edge for pair p:
// u has p.T1 and v has p.T2, or u has p.T2 and v has p.T1 (paper Section 3).
func (g *Graph) EdgeMatches(u, v Node, p LabelPair) bool {
	return (g.HasLabel(u, p.T1) && g.HasLabel(v, p.T2)) ||
		(g.HasLabel(u, p.T2) && g.HasLabel(v, p.T1))
}

// TargetDegree returns T(u) for pair p: the number of target edges incident
// to u. This is the quantity NeighborExploration records after exploring all
// neighbors of a sampled node (paper Section 4.2).
func (g *Graph) TargetDegree(u Node, p LabelPair) int {
	hasT1 := g.HasLabel(u, p.T1)
	hasT2 := g.HasLabel(u, p.T2)
	if !hasT1 && !hasT2 {
		return 0
	}
	count := 0
	for _, v := range g.Neighbors(u) {
		if hasT1 && g.HasLabel(v, p.T2) {
			count++
			continue
		}
		if hasT2 && g.HasLabel(v, p.T1) {
			count++
		}
	}
	return count
}

// Edges calls fn for every undirected edge exactly once (u < v ordering).
// It stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v Node) bool) {
	for u := Node(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// EdgeAt maps a flat index in [0, 2|E|) to the directed edge it denotes in
// the adjacency array; used by samplers that need a uniform random edge. On
// an overlay graph it indexes the merged view (materialized lazily).
func (g *Graph) EdgeAt(idx int64) (u, v Node) {
	off, adj := g.off, g.adj
	if g.overlay != nil {
		f := g.flatten()
		off, adj = f.off, f.adj
	}
	// Binary search over off to find the source node.
	lo, hi := 0, g.NumNodes()
	for lo < hi {
		mid := (lo + hi) / 2
		if off[mid+1] <= idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Node(lo), adj[idx]
}

// Validate checks structural invariants: monotone offsets, in-range and
// sorted adjacency, CSR symmetry (v in adj(u) iff u in adj(v)), no
// self-loops, no duplicate neighbors, and degree-sum = 2|E|. It is O(|E| log)
// and intended for tests and load-time verification, not hot paths.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.labelOff) != n+1 && !(n == 0 && len(g.labelOff) == 0) {
		return fmt.Errorf("graph: label offsets length %d, want %d", len(g.labelOff), n+1)
	}
	var degSum int64
	for u := 0; u < n; u++ {
		if g.off[u] > g.off[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
		ns := g.Neighbors(Node(u))
		degSum += int64(len(ns))
		for i, v := range ns {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: neighbor %d of node %d out of range", v, u)
			}
			if v == Node(u) {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if i > 0 && ns[i-1] >= v {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", u)
			}
			if !g.HasEdge(v, Node(u)) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
		}
		ls := g.Labels(Node(u))
		for i := 1; i < len(ls); i++ {
			if ls[i-1] >= ls[i] {
				return fmt.Errorf("graph: labels of node %d not strictly sorted", u)
			}
		}
	}
	if degSum != 2*g.numEdges {
		return fmt.Errorf("graph: degree sum %d != 2|E| = %d", degSum, 2*g.numEdges)
	}
	return nil
}
