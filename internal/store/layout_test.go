package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// layoutGraph is a 600-node Barabási–Albert graph placed inside an n-node ID
// space: at IDs [0, 600) when top is false, leaving the IDs above it
// isolated, or mirrored onto the top of the range when top is true. Its
// first node, which becomes node n−1 when mirrored, is also a friend of every
// fourth node. Nodes carry zero, one or two labels, so the label table
// interns shared values.
func layoutGraph(t testing.TB, n int, top bool) (*graph.Graph, graph.Node) {
	t.Helper()
	g0, err := gen.BarabasiAlbert(600, 4, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	id := func(u graph.Node) graph.Node { return u }
	if top {
		id = func(u graph.Node) graph.Node { return graph.Node(n-1) - u }
	}
	b := graph.NewBuilder(n)
	g0.Edges(func(u, v graph.Node) bool {
		if err := b.AddEdge(id(u), id(v)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	for u := graph.Node(4); u < 600; u += 4 {
		if err := b.AddEdge(id(0), id(u)); err != nil {
			t.Fatal(err)
		}
	}
	for u := graph.Node(0); u < graph.Node(n); u++ {
		switch u % 5 {
		case 0:
		case 1:
			b.SetLabels(u, graph.Label(u%3))
		default:
			b.SetLabels(u, graph.Label(u%3), graph.Label(10+u%7))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, id(0)
}

// recordFrom records walkers walkers from start on g.
func recordFrom(t testing.TB, g *graph.Graph, start graph.Node, walkers int) *core.Trajectory {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := core.RecordTrajectory(s, 200, core.Options{
		BurnIn:  30,
		Rng:     stats.NewSeedSequence(int64(walkers)).NextRand(),
		Start:   start,
		Walkers: walkers,
		Seed:    stats.Derive(int64(walkers), "fleet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// refLayout computes the label sections the plain way: every referenced
// node in a map, sorted, and each label's table index by binary search.
func refLayout(t *core.Trajectory) (nodes []graph.Node, off []uint32, table []graph.Label, refs []uint32) {
	d := t.Data()
	referenced := map[graph.Node]bool{}
	for _, col := range [][]graph.Node{d.StartNode, d.Prev, d.Node, d.Arena} {
		for _, u := range col {
			referenced[u] = true
		}
	}
	all := make([]graph.Node, 0, len(referenced))
	for u := range referenced {
		all = append(all, u)
	}
	slices.Sort(all)
	distinct := map[graph.Label]bool{}
	off = []uint32{0}
	var perNode [][]graph.Label
	for _, u := range all {
		if ls := t.Labels().Labels(u); len(ls) > 0 {
			nodes = append(nodes, u)
			perNode = append(perNode, ls)
			for _, l := range ls {
				distinct[l] = true
			}
		}
	}
	for l := range distinct {
		table = append(table, l)
	}
	slices.Sort(table)
	for _, ls := range perNode {
		for _, l := range ls {
			refs = append(refs, uint32(sort.Search(len(table), func(j int) bool { return table[j] >= l })))
		}
		off = append(off, uint32(len(refs)))
	}
	return nodes, off, table, refs
}

// TestLayoutMatchesReference checks the .osnt layout's label sections
// against the map-and-sort reference, at several walker counts, on a graph
// under 4,096 nodes, one whose walk references a small share of a large ID
// space, and one of 2^16+1 nodes whose last ID the walk references.
func TestLayoutMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		top  bool
	}{
		{"small", 600, false},
		{"sparse", 200_000, false},
		{"top-id", 1<<16 + 1, true},
	} {
		g, hub := layoutGraph(t, tc.n, tc.top)
		for _, walkers := range []int{1, 2, 4} {
			traj := recordFrom(t, g, hub, walkers)
			where := fmt.Sprintf("%s, %d walkers", tc.name, walkers)
			lay := computeLayout(traj)
			nodes, off, table, refs := refLayout(traj)
			if !slices.Equal(lay.labelNodes, nodes) || !slices.Equal(lay.labelOff, off) ||
				!slices.Equal(lay.table, table) || !slices.Equal(lay.refs, refs) {
				t.Errorf("%s: the label sections differ from the reference", where)
			}
			if lay.walkers != walkers || lay.totalSteps != int64(traj.Samples()) || lay.totalNeighbors != int64(len(traj.Data().Arena)) {
				t.Errorf("%s: section totals %d/%d/%d", where, lay.walkers, lay.totalSteps, lay.totalNeighbors)
			}
			if tc.top && !slices.Contains(nodes, graph.Node(tc.n-1)) {
				t.Errorf("%s: the walk never references node %d", where, tc.n-1)
			}
		}
	}
}

// TestWriteBytesPinned pins the exact bytes Write produces for one fixed
// recording, labels interned and all: a change to the writer or to the
// layout it encodes moves the digest.
func TestWriteBytesPinned(t *testing.T) {
	g, hub := layoutGraph(t, 1<<16+1, true)
	var buf bytes.Buffer
	if err := Write(&buf, recordFrom(t, g, hub, 2)); err != nil {
		t.Fatal(err)
	}
	const want = "8a0a7fead56dafe9046ceade3362a3d151febcf7ee2f4d9797ca460c065f69ac"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Write produced %d bytes with SHA-256 %s, want %s", buf.Len(), got, want)
	}
}
