package graph

import (
	"fmt"
	"slices"
)

// labelRec is one pending node/label attachment inside a Builder.
type labelRec struct {
	u Node
	l Label
}

// Builder accumulates edges and labels and produces an immutable Graph.
// Mirroring the paper's preprocessing (Section 5.1), Build removes edge
// directions, self-loops and multi-edges.
//
// The builder is sized for million-node streaming generation: edges and
// labels are held in flat append-only arrays (8 bytes per edge, no maps),
// and Build packs them into CSR with a counting sort plus per-node
// sort/dedupe instead of a global comparison sort, so generators can stream
// 10M+ edges through it without materializing intermediate edge maps.
type Builder struct {
	n     int
	edges []Edge
	// labels is the append-only (node, label) record stream; resetAt[u]
	// (when allocated) discards every record for u that precedes it,
	// implementing SetLabels without a per-node map.
	labels  []labelRec
	resetAt []int32
}

// NewBuilder returns a builder for a graph over n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records an undirected edge. Self-loops and duplicates are accepted
// here and removed at Build time, matching the dataset cleanup in the paper.
func (b *Builder) AddEdge(u, v Node) error {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	b.edges = append(b.edges, Edge{U: u, V: v}.Canonical())
	return nil
}

// AddLabel attaches label l to node u. Duplicate labels are deduplicated at
// Build time.
func (b *Builder) AddLabel(u Node, l Label) error {
	if u < 0 || int(u) >= b.n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", u, b.n)
	}
	b.labels = append(b.labels, labelRec{u: u, l: l})
	return nil
}

// SetLabels replaces the label set of node u.
func (b *Builder) SetLabels(u Node, ls ...Label) error {
	if u < 0 || int(u) >= b.n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", u, b.n)
	}
	if b.resetAt == nil {
		b.resetAt = make([]int32, b.n)
	}
	b.resetAt[u] = int32(len(b.labels))
	for _, l := range ls {
		b.labels = append(b.labels, labelRec{u: u, l: l})
	}
	return nil
}

// Build produces the immutable CSR graph: directions dropped, self-loops and
// multi-edges removed, adjacency and label lists sorted. The builder may be
// reused (Build does not consume its inputs).
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{}

	// Pass 1: count incidences per node (self-loops dropped here, duplicate
	// edges counted and removed after the per-node sort).
	g.off = make([]int64, b.n+1)
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		g.off[e.U+1]++
		g.off[e.V+1]++
	}
	for i := 1; i <= b.n; i++ {
		g.off[i] += g.off[i-1]
	}

	// Pass 2: scatter endpoints; off[u] advances to the end of u's segment
	// and is shifted back afterwards (the classic cursor-free counting sort).
	g.adj = make([]Node, g.off[b.n])
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		g.adj[g.off[e.U]] = e.V
		g.off[e.U]++
		g.adj[g.off[e.V]] = e.U
		g.off[e.V]++
	}
	for u := b.n; u > 0; u-- {
		g.off[u] = g.off[u-1]
	}
	g.off[0] = 0

	// Pass 3: sort each adjacency list, drop duplicates, and compact the
	// array in place (the write cursor never overtakes the read cursor).
	var w int64
	read := g.off[0]
	for u := 0; u < b.n; u++ {
		seg := g.adj[read:g.off[u+1]]
		read = g.off[u+1]
		slices.Sort(seg)
		g.off[u] = w
		for i, v := range seg {
			if i > 0 && seg[i-1] == v {
				continue
			}
			g.adj[w] = v
			w++
		}
	}
	g.off[b.n] = w
	g.adj = rightSize(g.adj, int(w))
	g.numEdges = w / 2

	// Labels: drop records superseded by a SetLabels reset, pack the rest
	// into CSR with the same counting sort, then sort + dedupe per node.
	g.labelOff = make([]int32, b.n+1)
	kept := func(i int, rec labelRec) bool {
		return b.resetAt == nil || int32(i) >= b.resetAt[rec.u]
	}
	for i, rec := range b.labels {
		if kept(i, rec) {
			g.labelOff[rec.u+1]++
		}
	}
	for i := 1; i <= b.n; i++ {
		g.labelOff[i] += g.labelOff[i-1]
	}
	g.labelVal = make([]Label, g.labelOff[b.n])
	for i, rec := range b.labels {
		if kept(i, rec) {
			g.labelVal[g.labelOff[rec.u]] = rec.l
			g.labelOff[rec.u]++
		}
	}
	for u := b.n; u > 0; u-- {
		g.labelOff[u] = g.labelOff[u-1]
	}
	g.labelOff[0] = 0
	var lw int32
	lread := g.labelOff[0]
	for u := 0; u < b.n; u++ {
		seg := g.labelVal[lread:g.labelOff[u+1]]
		lread = g.labelOff[u+1]
		slices.Sort(seg)
		g.labelOff[u] = lw
		for i, l := range seg {
			if i > 0 && seg[i-1] == l {
				continue
			}
			g.labelVal[lw] = l
			lw++
		}
	}
	g.labelOff[b.n] = lw
	g.labelVal = rightSize(g.labelVal, int(lw))
	return g, nil
}

// rightSize trims s to length n, reallocating when dedupe left substantial
// dead capacity behind (e.g. a SNAP edge list that states every edge in
// both directions) — the graph is immutable and long-lived, so it should
// not pin a duplicate-inclusive backing array.
func rightSize[T any](s []T, n int) []T {
	if cap(s)-n <= cap(s)/8 {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s[:n])
	return out
}

// appendSortedUnique appends a sorted, deduplicated copy of ls to dst and
// returns the extended slice; ls itself is not modified.
func appendSortedUnique(dst []Label, ls []Label) []Label {
	start := len(dst)
	dst = append(dst, ls...)
	seg := dst[start:]
	slices.Sort(seg)
	w := 0
	for i, l := range seg {
		if i > 0 && seg[i-1] == l {
			continue
		}
		seg[w] = l
		w++
	}
	return dst[:start+w]
}
