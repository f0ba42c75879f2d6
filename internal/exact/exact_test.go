package exact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// labeledTriangleTail builds 0(a)-1(b)-2(a,b) triangle with tail 2-3(b).
func labeledTriangleTail(t *testing.T) *graph.Graph {
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
	if err := b.SetLabels(2, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLabels(3, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCountTargetEdges(t *testing.T) {
	g := labeledTriangleTail(t)
	// Pair (1,2): edges (0,1) a-b yes, (1,2) yes, (0,2) yes, (2,3) a&b-b yes
	// because node 2 has label 1 and node 3 has label 2.
	if got := CountTargetEdges(g, graph.LabelPair{T1: 1, T2: 2}); got != 4 {
		t.Errorf("F = %d, want 4", got)
	}
	// Pair (1,1): needs both endpoints with 1: only (0,2).
	if got := CountTargetEdges(g, graph.LabelPair{T1: 1, T2: 1}); got != 1 {
		t.Errorf("F(1,1) = %d, want 1", got)
	}
	// Pair (3,4): absent labels.
	if got := CountTargetEdges(g, graph.LabelPair{T1: 3, T2: 4}); got != 0 {
		t.Errorf("F(3,4) = %d, want 0", got)
	}
}

func TestCountTargetEdgesOrderInsensitive(t *testing.T) {
	g := labeledTriangleTail(t)
	a := CountTargetEdges(g, graph.LabelPair{T1: 1, T2: 2})
	b := CountTargetEdges(g, graph.LabelPair{T1: 2, T2: 1})
	if a != b {
		t.Errorf("pair order changed the count: %d vs %d", a, b)
	}
}

func TestLabelPairCensusConsistent(t *testing.T) {
	g := labeledTriangleTail(t)
	census := LabelPairCensus(g)
	byPair := make(map[graph.LabelPair]int64)
	for _, pc := range census {
		byPair[pc.Pair] = pc.Count
	}
	// Every census entry must equal the direct count.
	for p, c := range byPair {
		if direct := CountTargetEdges(g, p); direct != c {
			t.Errorf("census %v = %d, direct count = %d", p, c, direct)
		}
	}
	// Census must be sorted ascending by count.
	for i := 1; i < len(census); i++ {
		if census[i-1].Count > census[i].Count {
			t.Errorf("census not sorted at %d", i)
		}
	}
}

func TestLabelPairCensusOnStandIn(t *testing.T) {
	g, err := gen.Build(gen.Pokec, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	census := LabelPairCensus(g)
	if len(census) == 0 {
		t.Fatal("empty census")
	}
	// Spot-check five entries against direct counting.
	idxs := []int{0, len(census) / 4, len(census) / 2, 3 * len(census) / 4, len(census) - 1}
	for _, i := range idxs {
		pc := census[i]
		if direct := CountTargetEdges(g, pc.Pair); direct != pc.Count {
			t.Errorf("census[%d] %v = %d, direct = %d", i, pc.Pair, pc.Count, direct)
		}
	}
}

func TestLabelFrequencies(t *testing.T) {
	g := labeledTriangleTail(t)
	freq := LabelFrequencies(g)
	if freq[1] != 2 || freq[2] != 3 {
		t.Errorf("frequencies = %v, want 1->2, 2->3", freq)
	}
}

func TestMaxDegree(t *testing.T) {
	g := labeledTriangleTail(t)
	if MaxDegree(g) != 3 {
		t.Errorf("MaxDegree = %d, want 3", MaxDegree(g))
	}
	if MaxDegree(&graph.Graph{}) != 0 {
		t.Error("MaxDegree of empty graph should be 0")
	}
}

func TestTargetDegreesHandshake(t *testing.T) {
	g := labeledTriangleTail(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	tds := TargetDegrees(g, pair)
	var sum int64
	for _, td := range tds {
		sum += int64(td)
	}
	if want := 2 * CountTargetEdges(g, pair); sum != want {
		t.Errorf("ΣT(u) = %d, want 2F = %d", sum, want)
	}
}

func TestCountWedges(t *testing.T) {
	g := labeledTriangleTail(t)
	// Degrees 2,2,3,1 → 1 + 1 + 3 + 0 = 5 wedges.
	if got := CountWedges(g); got != 5 {
		t.Errorf("wedges = %d, want 5", got)
	}
}

func TestCountTriangles(t *testing.T) {
	g := labeledTriangleTail(t)
	if got := CountTriangles(g); got != 1 {
		t.Errorf("triangles = %d, want 1", got)
	}
}

func TestCountTrianglesOnKn(t *testing.T) {
	// K5 has C(5,3) = 10 triangles.
	b := graph.NewBuilder(5)
	for u := graph.Node(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := CountTriangles(g); got != 10 {
		t.Errorf("K5 triangles = %d, want 10", got)
	}
}

func TestCountLabeledTriangles(t *testing.T) {
	g := labeledTriangleTail(t)
	// The single triangle 0-1-2 contains target edges for (1,2).
	if got := CountLabeledTriangles(g, graph.LabelPair{T1: 1, T2: 2}); got != 1 {
		t.Errorf("labeled triangles = %d, want 1", got)
	}
	if got := CountLabeledTriangles(g, graph.LabelPair{T1: 8, T2: 9}); got != 0 {
		t.Errorf("labeled triangles for absent labels = %d, want 0", got)
	}
}

func TestCountLabeledWedges(t *testing.T) {
	g := labeledTriangleTail(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	// T = [1 2 3 1] for this graph? Verify: node0 target edges: (0,1),(0,2) → 2.
	// node1: (0,1),(1,2) → 2. node2: (1,2),(0,2),(2,3) → 3. node3: (2,3) → 1.
	// Wedges: C(2,2)=1 + 1 + 3 + 0 = 5.
	if got := CountLabeledWedges(g, pair); got != 5 {
		t.Errorf("labeled wedges = %d, want 5", got)
	}
}

// TestWedgeTriangleProperty cross-checks the wedge formula against a direct
// path-of-length-2 enumeration on random graphs.
func TestWedgeTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ErdosRenyi(15+rng.Intn(20), 40, rng)
		if err != nil {
			return false
		}
		// Direct wedge count.
		var direct int64
		for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
			d := int64(g.Degree(u))
			direct += d * (d - 1) / 2
		}
		if CountWedges(g) != direct {
			return false
		}
		// Triangles: brute force over node triples.
		var tri int64
		n := g.NumNodes()
		for a := graph.Node(0); int(a) < n; a++ {
			for b := a + 1; int(b) < n; b++ {
				if !g.HasEdge(a, b) {
					continue
				}
				for c := b + 1; int(c) < n; c++ {
					if g.HasEdge(a, c) && g.HasEdge(b, c) {
						tri++
					}
				}
			}
		}
		return CountTriangles(g) == tri
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
