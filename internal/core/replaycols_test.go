package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
)

// columnGraph is a 2,000-node Barabási–Albert graph placed inside an n-node
// ID space: at IDs [0, 2000) when top is false, leaving the IDs above it
// isolated, or mirrored onto the top of the range when top is true. Its
// first node, which becomes node n−1 when mirrored, is also a friend of every
// fourth node, so that every walk arrives there. Nodes carry zero, one or
// two labels.
func columnGraph(t testing.TB, n int, top bool) (*graph.Graph, graph.Node) {
	t.Helper()
	g0, err := gen.BarabasiAlbert(2000, 4, rand.New(rand.NewSource(11)))
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
	for u := graph.Node(4); u < 2000; u += 4 {
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

// columnCases are the graphs the column builds are checked on: one under
// 4,096 nodes, one whose walk touches a small share of a large ID space,
// and one of 2^16+1 nodes whose hub is the last ID.
var columnCases = []struct {
	name string
	n    int
	top  bool
}{
	{"small", 2000, false},
	{"sparse", 200_000, false},
	{"top-id", 1<<16 + 1, true},
}

// recordColumnCase records a fleet of walkers from the case graph's hub.
func recordColumnCase(t *testing.T, g *graph.Graph, hub graph.Node, walkers, thinGap int) *Trajectory {
	t.Helper()
	traj, err := RecordTrajectory(newSession(t, g), 400, Options{
		BurnIn:  40,
		ThinGap: thinGap,
		Rng:     stats.NewSeedSequence(int64(walkers)).NextRand(),
		Start:   hub,
		Walkers: walkers,
		Seed:    stats.Derive(int64(walkers), "fleet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// refCommonNeighbors merge-counts each step's endpoint-common neighbors.
func refCommonNeighbors(t *Trajectory) []int32 {
	cn := make([]int32, t.Samples())
	for w := 0; w < t.NumWalkers(); w++ {
		prev := t.StartNeighbors(w)
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			nbrs := t.StepNeighbors(i)
			a, b := 0, 0
			for a < len(prev) && b < len(nbrs) {
				switch {
				case prev[a] < nbrs[b]:
					a++
				case prev[a] > nbrs[b]:
					b++
				default:
					cn[i]++
					a++
					b++
				}
			}
			prev = nbrs
		}
	}
	return cn
}

// refOccurrences groups every arrival's (walker, position) by node in a map.
func refOccurrences(t *Trajectory) map[graph.Node][][2]int32 {
	groups := make(map[graph.Node][][2]int32)
	for w := 0; w < t.NumWalkers(); w++ {
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			u := t.StepNode(i)
			groups[u] = append(groups[u], [2]int32{int32(w), int32(i - lo)})
		}
	}
	return groups
}

// refNECols derives NeighborExploration's columns with maps of seen nodes.
func refNECols(t *Trajectory) *neCols {
	S, W := t.Samples(), t.NumWalkers()
	c := &neCols{
		nodeFirst: make([]bool, S), nodeFirstW: make([]bool, S), nodeFirstAllW: make([]bool, S),
		incl: make([]float64, S), inclW: make([]float64, S), invDeg: make([]float64, S),
	}
	retW := make([]int, W)
	retTotal := 0
	for w := range retW {
		retW[w] = retainedCount(t.WalkerLen(w), t.ThinGap)
		retTotal += retW[w]
	}
	stride := max(t.ThinGap, 1)
	pooled := map[graph.Node]bool{}
	for w := 0; w < W; w++ {
		all, own := map[graph.Node]bool{}, map[graph.Node]bool{}
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			u, d := t.StepNode(i), float64(t.StepDegree(i))
			c.invDeg[i] = 1 / d
			c.nodeFirstAllW[i] = !all[u]
			all[u] = true
			if (i-lo)%stride != 0 {
				continue
			}
			c.nodeFirst[i], c.nodeFirstW[i] = !pooled[u], !own[u]
			pooled[u], own[u] = true, true
			c.incl[i] = estimate.InclusionProbability(d/(2*float64(t.NumEdges)), retTotal)
			c.inclW[i] = estimate.InclusionProbability(d/(2*float64(t.NumEdges)), retW[w])
		}
	}
	return c
}

// TestColumnBuildsMatchReferences checks the node-set column builds (the
// common-neighbor counts, the occurrence index and NeighborExploration's
// columns) against plain merge and map implementations, at several walker
// counts and thinning gaps, on graphs of every size class.
func TestColumnBuildsMatchReferences(t *testing.T) {
	for _, tc := range columnCases {
		g, hub := columnGraph(t, tc.n, tc.top)
		for _, walkers := range []int{1, 2, 4} {
			for _, thin := range []int{0, 3} {
				traj := recordColumnCase(t, g, hub, walkers, thin)
				where := func() string { return fmt.Sprintf("%s, %d walkers, gap %d", tc.name, walkers, thin) }

				if got, want := traj.EdgeCommonNeighbors(), refCommonNeighbors(traj); !slices.Equal(got, want) {
					t.Errorf("%s: EdgeCommonNeighbors differs from the merge count", where())
				}

				occ := traj.Occurrences()
				want := refOccurrences(traj)
				if len(occ.Nodes) != len(want) || len(occ.Off) != len(occ.Nodes)+1 {
					t.Fatalf("%s: index lists %d nodes, the walk arrives at %d", where(), len(occ.Nodes), len(want))
				}
				for j, u := range occ.Nodes {
					var got [][2]int32
					for o := occ.Off[j]; o < occ.Off[j+1]; o++ {
						got = append(got, [2]int32{occ.Walker[o], occ.Pos[o]})
					}
					if !reflect.DeepEqual(got, want[u]) {
						t.Errorf("%s: node %d's occurrences %v, want %v", where(), u, got, want[u])
					}
				}

				if got, want := traj.neColumns(), refNECols(traj); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: NeighborExploration columns differ from the map-built ones", where())
				}

				if tc.top && !slices.Contains(occ.Nodes, graph.Node(tc.n-1)) {
					t.Errorf("%s: the walk never arrives at node %d", where(), tc.n-1)
				}
			}
		}
	}
}
