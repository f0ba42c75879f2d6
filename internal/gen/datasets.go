package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/stats"
)

// StandIn names the five synthetic stand-ins for the paper's datasets
// (Table 1). Each stand-in reproduces the dataset's *label mechanics* and a
// heavy-tailed or community-structured topology at a laptop-feasible size.
// The real graphs are not bundled. The estimators' error depends on the
// degree distribution and on how the target labels spread over the edges,
// not on who the users are, so a graph that keeps those two properties
// exercises the same regime; `reproduce -table 1` prints each stand-in's
// size beside the paper's.
type StandIn string

// The five stand-ins, in the paper's order.
const (
	Facebook    StandIn = "facebook"    // ego-network community graph, community-skewed gender labels (1,2)
	GooglePlus  StandIn = "googleplus"  // denser ego-network community graph, more skewed gender labels
	Pokec       StandIn = "pokec"       // degree-corrected community graph, community-correlated location labels
	Orkut       StandIn = "orkut"       // erased configuration model, exact-degree labels
	Livejournal StandIn = "livejournal" // BA graph, exact-degree labels
)

// StandIns returns all stand-in names in the paper's presentation order.
func StandIns() []StandIn {
	return []StandIn{Facebook, GooglePlus, Pokec, Orkut, Livejournal}
}

// Spec documents a stand-in: the paper's original statistics and the label
// scheme in force.
type Spec struct {
	Name        StandIn
	PaperNodes  float64 // |V| of the real dataset, from Table 1
	PaperEdges  float64 // |E| of the real dataset, from Table 1
	LabelScheme string
	// BaseNodes is the node count at scale 1.0.
	BaseNodes int
}

// Specs returns the spec for every stand-in.
func Specs() map[StandIn]Spec {
	return map[StandIn]Spec{
		Facebook:    {Name: Facebook, PaperNodes: 4.0e3, PaperEdges: 8.82e4, LabelScheme: "gender (1=female, 2=male); a community's P(female) is 0.12 with weight 0.45, else 0.52", BaseNodes: 4000},
		GooglePlus:  {Name: GooglePlus, PaperNodes: 1.08e5, PaperEdges: 1.22e7, LabelScheme: "gender (1=female, 2=male); a community's P(female) is 0.03 with weight 0.40, else 0.18", BaseNodes: 12000},
		Pokec:       {Name: Pokec, PaperNodes: 1.6e6, PaperEdges: 2.23e7, LabelScheme: "Zipf location labels over 150 regions, community-correlated", BaseNodes: 20000},
		Orkut:       {Name: Orkut, PaperNodes: 3.08e6, PaperEdges: 1.17e8, LabelScheme: "exact node degree as label", BaseNodes: 24000},
		Livejournal: {Name: Livejournal, PaperNodes: 4.8e6, PaperEdges: 4.28e7, LabelScheme: "exact node degree as label", BaseNodes: 30000},
	}
}

// Build generates the named stand-in at the given scale (1.0 = the default
// laptop-feasible size; larger values grow |V| proportionally) and returns
// its largest connected component, labeled. Deterministic in seed.
func Build(name StandIn, scale float64, seed int64) (*graph.Graph, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("gen: scale must be positive, got %g", scale)
	}
	spec, ok := Specs()[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown stand-in %q (want one of %v)", name, StandIns())
	}
	n := int(float64(spec.BaseNodes) * scale)
	if n < 100 {
		n = 100
	}
	seq := stats.NewSeedSequence(stats.Derive(seed, string(name)))
	topoRng := seq.NextRand()
	labelRng := seq.NextRand()

	var (
		g   *graph.Graph
		err error
	)
	var labeler Labeler
	switch name {
	case Facebook:
		// The SNAP Facebook dataset is a union of ego networks: dense
		// communities, heavy-tailed degrees with degree-1 users, and
		// community-level gender skew. Aggregate (1,2) fraction lands near
		// the paper's 42.4%.
		g, err = egoNetGenderGraph(n, 1.55, 60, 0.55, 0.12, 0.52, 0.45, topoRng)
	case GooglePlus:
		// Denser slice (the real mean degree is ~226) with stronger gender
		// imbalance, tuned toward the paper's 26.9% (1,2) fraction.
		g, err = egoNetGenderGraph(n, 1.35, 80, 0.50, 0.03, 0.18, 0.40, topoRng)
	case Pokec:
		var community []int
		g, community, err = pokecTopology(n, topoRng)
		if err == nil {
			labeler = &CommunityLocationLabeler{
				Community: community,
				PNoise:    0.05,
				NumLabels: pokecRegions,
				Rng:       labelRng,
			}
		}
	case Orkut:
		degrees, derr := PowerLawDegrees(n, 3, n/20, 2.3, topoRng)
		if derr != nil {
			return nil, derr
		}
		g, err = ConfigurationModel(degrees, topoRng)
		// The paper uses the exact node degree as the label on Orkut and
		// Livejournal ("the node degree is considered as the node label");
		// its test pairs like (48,45) are degree pairs, and exact degrees
		// are what make pair frequencies span four orders of magnitude.
		labeler = ExactDegreeLabeler{}
	case Livejournal:
		g, err = BarabasiAlbert(n, 9, topoRng)
		labeler = ExactDegreeLabeler{}
	}
	if err != nil {
		return nil, fmt.Errorf("gen: building %s stand-in: %w", name, err)
	}

	// Label before LCC extraction (labels travel with nodes; Pokec labels
	// depend on the pre-LCC numbering). The ego-network generator of
	// facebook and googleplus labels during construction, signalled by a nil
	// labeler.
	labeled := g
	if labeler != nil {
		labeled, err = Apply(g, labeler)
		if err != nil {
			return nil, fmt.Errorf("gen: labeling %s stand-in: %w", name, err)
		}
	}
	lcc, _ := graph.LargestComponent(labeled)
	return lcc, nil
}

// egoNetGenderGraph builds a gender-labeled ego-network-style graph:
// power-law degrees (minimum 1, exponent gamma), numComm Zipf-sized
// communities with pGlobal of stubs matched globally, and a bimodal
// community gender composition (pLow with weight wLow, else pHigh).
func egoNetGenderGraph(n int, gamma float64, numComm int, pGlobal, pLow, pHigh, wLow float64, rng *rand.Rand) (*graph.Graph, error) {
	maxDeg := n / 8
	if maxDeg < 2 {
		maxDeg = 2
	}
	degrees, err := PowerLawDegrees(n, 1, maxDeg, gamma, rng)
	if err != nil {
		return nil, err
	}
	sizes := zipfSizes(n, numComm, 0.8, rng)
	probs := BimodalProbs(len(sizes), pLow, pHigh, wLow, rng)
	g, _, err := CommunityGenderGraph(degrees, sizes, pGlobal, probs, rng)
	return g, err
}

// pokecRegions is the number of location labels in the Pokec stand-in,
// approximating the "thousands of edge labels" variety of the real dataset
// at reduced scale.
const pokecRegions = 150

// pokecTopology builds a degree-corrected community graph whose community
// sizes follow a Zipf law, so location-pair target-edge counts span several
// orders of magnitude exactly as in the paper's Tables 6–9 (0.001%–0.03%).
// Mean degree lands near the real Pokec's ~28 regardless of scale because
// each node brings its own power-law degree.
func pokecTopology(n int, rng *rand.Rand) (*graph.Graph, []int, error) {
	degrees, err := PowerLawDegrees(n, 3, n/10, 2.2, rng)
	if err != nil {
		return nil, nil, err
	}
	sizes := zipfSizes(n, pokecRegions, 1.05, rng)
	// 15% of friendships cross region borders, supplying the long-range
	// mixing a national OSN has.
	return CommunityGraph(degrees, sizes, 0.15, rng)
}

// zipfSizes splits n items into k groups with Zipf(s)-proportional sizes,
// every group non-empty, largest group first.
func zipfSizes(n, k int, s float64, _ *rand.Rand) []int {
	if k > n {
		k = n
	}
	weights := make([]float64, k)
	var total float64
	for i := range weights {
		weights[i] = 1 / powf(float64(i+1), s)
		total += weights[i]
	}
	sizes := make([]int, k)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(n) * weights[i] / total)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	// Distribute rounding remainder (or trim surplus) over the largest
	// groups to keep the total exactly n.
	i := 0
	for assigned < n {
		sizes[i%k]++
		assigned++
		i++
	}
	for assigned > n {
		if sizes[i%k] > 1 {
			sizes[i%k]--
			assigned--
		}
		i++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
