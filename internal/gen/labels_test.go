package gen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	g, err := BarabasiAlbert(n, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenderLabelerSplit(t *testing.T) {
	g := testGraph(t, 2000)
	labeled, err := Apply(g, &GenderLabeler{PFemale: 0.3, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	var female, male int
	for u := graph.Node(0); int(u) < labeled.NumNodes(); u++ {
		ls := labeled.Labels(u)
		if len(ls) != 1 {
			t.Fatalf("node %d has %d labels, want 1", u, len(ls))
		}
		switch ls[0] {
		case 1:
			female++
		case 2:
			male++
		default:
			t.Fatalf("unexpected label %d", ls[0])
		}
	}
	gotP := float64(female) / float64(female+male)
	if math.Abs(gotP-0.3) > 0.05 {
		t.Errorf("female fraction %.3f, want ~0.30", gotP)
	}
}

func TestApplyPreservesStructure(t *testing.T) {
	g := testGraph(t, 300)
	labeled, err := Apply(g, ExactDegreeLabeler{})
	if err != nil {
		t.Fatal(err)
	}
	if labeled.NumNodes() != g.NumNodes() || labeled.NumEdges() != g.NumEdges() {
		t.Fatalf("structure changed: %d/%d vs %d/%d",
			labeled.NumNodes(), labeled.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		if labeled.Degree(u) != g.Degree(u) {
			t.Fatalf("degree of %d changed", u)
		}
	}
}

func TestCommunityLocationLabelerFollowsCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, community, err := SBM([]int{50, 50}, 0.3, 0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := Apply(g, &CommunityLocationLabeler{
		Community: community,
		PNoise:    0,
		NumLabels: 2,
		Rng:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.Node(0); int(u) < labeled.NumNodes(); u++ {
		want := graph.Label(community[u] + 1)
		if !labeled.HasLabel(u, want) {
			t.Fatalf("node %d missing community label %d", u, want)
		}
	}
}

func TestCommunityLocationLabelerNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, community, err := SBM([]int{200, 200}, 0.2, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := Apply(g, &CommunityLocationLabeler{
		Community: community,
		PNoise:    0.5,
		NumLabels: 2,
		Rng:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for u := graph.Node(0); int(u) < labeled.NumNodes(); u++ {
		if !labeled.HasLabel(u, graph.Label(community[u]+1)) {
			mismatches++
		}
	}
	// Half relabeled uniformly over 2 labels: ~25% end up different.
	if mismatches < 50 || mismatches > 150 {
		t.Errorf("mismatches = %d, want ~100", mismatches)
	}
}

func TestExactDegreeLabeler(t *testing.T) {
	g := testGraph(t, 200)
	labeled, err := Apply(g, ExactDegreeLabeler{})
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.Node(0); int(u) < labeled.NumNodes(); u++ {
		if !labeled.HasLabel(u, graph.Label(g.Degree(u))) {
			t.Fatalf("node %d missing exact-degree label", u)
		}
	}
}
