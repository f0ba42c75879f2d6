package gen

import (
	"math/rand"

	"repro/internal/graph"
)

// Labeler assigns a label set to every node of a graph. The three concrete
// labelers mirror the three label mechanics of the paper's evaluation:
// gender (a two-way split; the Facebook and Google+ stand-ins draw each
// community's female share from a bimodal mixture instead, see
// CommunityGenderGraph), location (skewed categorical; Pokec), and degree
// (structural; Orkut, Livejournal).
type Labeler interface {
	// Label returns the labels for node u of g.
	Label(g *graph.Graph, u graph.Node) []graph.Label
}

// Apply attaches the labeler's output to every node of g, returning a new
// graph that shares g's topology (no edge replay — labeling a million-node
// graph costs only the label pass itself).
func Apply(g *graph.Graph, l Labeler) (*graph.Graph, error) {
	return graph.ReplaceLabels(g, func(u graph.Node) []graph.Label {
		return l.Label(g, u)
	})
}

// GenderLabeler assigns each node exactly one of two labels (1 = female,
// 2 = male, the paper's Facebook/Google+ convention), choosing label 1 with
// probability PFemale.
type GenderLabeler struct {
	PFemale float64
	Rng     *rand.Rand
}

// Label implements Labeler.
func (gl *GenderLabeler) Label(_ *graph.Graph, _ graph.Node) []graph.Label {
	if gl.Rng.Float64() < gl.PFemale {
		return []graph.Label{1}
	}
	return []graph.Label{2}
}

// CommunityLocationLabeler assigns the node's community index (plus optional
// noise) as its location label, so that location labels follow the
// communities of a CommunityGraph the way real locations follow friendship
// communities.
type CommunityLocationLabeler struct {
	Community []int   // node -> community id
	PNoise    float64 // probability of relabeling uniformly at random
	NumLabels int
	Rng       *rand.Rand
}

// Label implements Labeler. Labels start at 1.
func (cl *CommunityLocationLabeler) Label(_ *graph.Graph, u graph.Node) []graph.Label {
	c := cl.Community[u]
	if cl.PNoise > 0 && cl.Rng.Float64() < cl.PNoise {
		c = cl.Rng.Intn(cl.NumLabels)
	}
	return []graph.Label{graph.Label(c + 1)}
}

// ExactDegreeLabeler labels each node with its exact degree, the literal
// reading of the paper's degree-label convention. Only sensible on graphs
// where many nodes share each degree value.
type ExactDegreeLabeler struct{}

// Label implements Labeler.
func (ExactDegreeLabeler) Label(g *graph.Graph, u graph.Node) []graph.Label {
	return []graph.Label{graph.Label(g.Degree(u))}
}
