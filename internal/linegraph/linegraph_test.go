package linegraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
)

func session(t *testing.T, g *graph.Graph) *osn.Session {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// triangleTail is 0-1-2-0 plus 2-3.
func triangleTail(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	for _, e := range [][2]graph.Node{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetLabels(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLabels(1, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLineGraphDegree(t *testing.T) {
	g := triangleTail(t)
	v := View{S: session(t, g)}
	cases := []struct {
		e    graph.Edge
		want int // d(u)+d(v)-2
	}{
		{graph.Edge{U: 0, V: 1}, 2 + 2 - 2},
		{graph.Edge{U: 1, V: 2}, 2 + 3 - 2},
		{graph.Edge{U: 2, V: 3}, 3 + 1 - 2},
	}
	for _, c := range cases {
		got, err := v.Degree(c.e)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Degree(%v) = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestLineGraphNeighborEnumeration(t *testing.T) {
	g := triangleTail(t)
	v := View{S: session(t, g)}
	e := graph.Edge{U: 1, V: 2}
	d, err := v.Degree(e)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[graph.Edge]bool)
	for i := 0; i < d; i++ {
		ne, err := v.Neighbor(e, i)
		if err != nil {
			t.Fatal(err)
		}
		if got[ne] {
			t.Errorf("neighbor %v enumerated twice", ne)
		}
		got[ne] = true
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 2, V: 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(got), len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing neighbor %v", w)
		}
	}
}

func TestLineGraphNeighborOutOfRange(t *testing.T) {
	g := triangleTail(t)
	v := View{S: session(t, g)}
	e := graph.Edge{U: 0, V: 1}
	if _, err := v.Neighbor(e, 2); err == nil {
		t.Error("want error for index past degree")
	}
	if _, err := v.Neighbor(e, -1); err == nil {
		t.Error("want error for negative index")
	}
}

func TestLineGraphIsTarget(t *testing.T) {
	g := triangleTail(t)
	v := View{S: session(t, g)}
	pair := graph.LabelPair{T1: 1, T2: 2}
	if !v.IsTarget(graph.Edge{U: 0, V: 1}, pair) {
		t.Error("(0,1) should be a target edge")
	}
	if v.IsTarget(graph.Edge{U: 2, V: 3}, pair) {
		t.Error("(2,3) should not be a target edge")
	}
}

func TestRandomEdgeIsRealEdge(t *testing.T) {
	g := triangleTail(t)
	v := View{S: session(t, g)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		e, err := v.RandomEdge(rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("RandomEdge returned non-edge %v", e)
		}
		if e.U > e.V {
			t.Fatalf("RandomEdge returned non-canonical %v", e)
		}
	}
}

func TestMaxDegreeFormula(t *testing.T) {
	if MaxDegree(5) != 8 {
		t.Errorf("MaxDegree(5) = %d, want 8", MaxDegree(5))
	}
	if MaxDegree(1) != 0 {
		t.Errorf("MaxDegree(1) = %d, want 0", MaxDegree(1))
	}
	if MaxDegree(0) != 0 {
		t.Errorf("MaxDegree(0) = %d, want 0", MaxDegree(0))
	}
}

// TestNeighborEnumerationMatchesMaterializedProperty compares the implicit
// view against a brute-force materialized line graph on random graphs.
func TestNeighborEnumerationMatchesMaterializedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g0, err := gen.ErdosRenyi(8+rng.Intn(10), 20, rng)
		if err != nil {
			return false
		}
		g, _ := graph.LargestComponent(g0)
		if g.NumEdges() < 2 {
			return true
		}
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			return false
		}
		v := View{S: s}

		// Materialize expected adjacency: edges share an endpoint.
		var edges []graph.Edge
		g.Edges(func(u, vv graph.Node) bool {
			edges = append(edges, graph.Edge{U: u, V: vv})
			return true
		})
		sharesEndpoint := func(a, b graph.Edge) bool {
			if a == b {
				return false
			}
			return a.U == b.U || a.U == b.V || a.V == b.U || a.V == b.V
		}
		for _, e := range edges {
			want := make(map[graph.Edge]bool)
			for _, o := range edges {
				if sharesEndpoint(e, o) {
					want[o] = true
				}
			}
			d, err := v.Degree(e)
			if err != nil {
				return false
			}
			if d != len(want) {
				t.Logf("seed %d: Degree(%v) = %d, want %d", seed, e, d, len(want))
				return false
			}
			got := make(map[graph.Edge]bool)
			for i := 0; i < d; i++ {
				ne, err := v.Neighbor(e, i)
				if err != nil {
					return false
				}
				got[ne] = true
			}
			if len(got) != len(want) {
				t.Logf("seed %d: duplicates in neighbors of %v", seed, e)
				return false
			}
			for o := range want {
				if !got[o] {
					t.Logf("seed %d: missing neighbor %v of %v", seed, o, e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLineGraphHandshake(t *testing.T) {
	// Σ_e deg_G'(e) = Σ_u d(u)(d(u)-1) — each wedge contributes one
	// line-graph edge, counted from both sides.
	rng := rand.New(rand.NewSource(77))
	g0, err := gen.BarabasiAlbert(60, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := session(t, g0)
	v := View{S: s}
	var lhs int64
	var failed error
	g0.Edges(func(u, vv graph.Node) bool {
		d, err := v.Degree(graph.Edge{U: u, V: vv})
		if err != nil {
			failed = err
			return false
		}
		lhs += int64(d)
		return true
	})
	if failed != nil {
		t.Fatal(failed)
	}
	var rhs int64
	for u := graph.Node(0); int(u) < g0.NumNodes(); u++ {
		d := int64(g0.Degree(u))
		rhs += d * (d - 1)
	}
	if lhs != rhs {
		t.Errorf("line-graph handshake: Σdeg = %d, want %d", lhs, rhs)
	}
}
