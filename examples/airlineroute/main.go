// Airline-route planning: the paper's second motivating scenario. An
// airline considers a new China–Austria route and uses the number of
// friendships between users in the two countries as a demand signal. The
// example emphasizes the operational side: an API budget, a metered
// session, and comparison of all ten algorithms at the same cost.
//
// Run with: go run ./examples/airlineroute
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
)

const (
	labelChina   = 10
	labelAustria = 20
)

func main() {
	g, err := buildNetwork()
	if err != nil {
		log.Fatal(err)
	}
	pair := graph.LabelPair{T1: labelChina, T2: labelAustria}
	truth := exact.CountTargetEdges(g, pair)
	fmt.Printf("network: %d users, %d friendships\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("true China–Austria friendships: %d\n\n", truth)

	budget := int64(float64(g.NumNodes()) * 0.05)
	burnIn := 600

	fmt.Printf("running all algorithms at a budget of %d API calls\n", budget)
	fmt.Println()
	fmt.Println("algorithm                 estimate   rel.err   api_calls")

	runCore := func(name string, f func(s *osn.Session, rng *rand.Rand) (float64, int64, error)) {
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(repro.Derive(77, name)))
		est, calls, err := f(s, rng)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-25s %9.0f   %6.1f%%   %9d\n", name, est, 100*relErr(est, truth), calls)
	}

	kBudget := int(budget)
	runCore("NeighborSample-HH/HT", func(s *osn.Session, rng *rand.Rand) (float64, int64, error) {
		opts := core.Options{BurnIn: burnIn, Rng: rng, Start: -1, BudgetDriven: true}
		r, err := core.NeighborSample(s, pair, kBudget, opts)
		return r.HH, r.APICalls, err
	})
	runCore("NeighborExploration-HH", func(s *osn.Session, rng *rand.Rand) (float64, int64, error) {
		opts := core.Options{BurnIn: burnIn, Rng: rng, Start: -1, BudgetDriven: true, Cost: core.ExplorePerNode}
		r, err := core.NeighborExploration(s, pair, kBudget, opts)
		return r.HH, r.APICalls, err
	})
	runCore("NeighborExploration-RW", func(s *osn.Session, rng *rand.Rand) (float64, int64, error) {
		opts := core.Options{BurnIn: burnIn, Rng: rng, Start: -1, BudgetDriven: true, Cost: core.ExplorePerNode}
		r, err := core.NeighborExploration(s, pair, kBudget, opts)
		return r.RW, r.APICalls, err
	})
	for _, m := range baseline.Methods() {
		m := m
		runCore("EX-"+string(m), func(s *osn.Session, rng *rand.Rand) (float64, int64, error) {
			r, err := baseline.Estimate(s, pair, m, kBudget, baseline.Options{
				BurnIn:       burnIn,
				Rng:          rng,
				Alpha:        0.15,
				Delta:        0.5,
				MaxDegreeG:   exact.MaxDegree(g),
				BudgetDriven: true,
			})
			return r.Estimate, r.APICalls, err
		})
	}

	fmt.Println()
	fmt.Println("China–Austria links are rare: the NeighborExploration family needs an")
	fmt.Println("order of magnitude less budget than edge sampling for the same error,")
	fmt.Println("which is why the paper recommends it for low-frequency target labels.")
}

// buildNetwork: a world of 14k users with a large Chinese region, a small
// Austrian one, and sparse international friendships.
func buildNetwork() (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(99))
	degrees, err := gen.PowerLawDegrees(14000, 2, 700, 2.4, rng)
	if err != nil {
		return nil, err
	}
	sizes := []int{9000, 4500, 500} // rest of world, China, Austria
	g0, community, err := gen.CommunityGraph(degrees, sizes, 0.05, rng)
	if err != nil {
		return nil, err
	}
	labels := []graph.Label{1, labelChina, labelAustria}
	labeled, err := gen.Apply(g0, labelerFunc(func(u graph.Node) []graph.Label {
		return []graph.Label{labels[community[u]]}
	}))
	if err != nil {
		return nil, err
	}
	lcc, _ := graph.LargestComponent(labeled)
	return lcc, nil
}

// labelerFunc adapts a closure to gen.Labeler.
type labelerFunc func(u graph.Node) []graph.Label

func (f labelerFunc) Label(_ *graph.Graph, u graph.Node) []graph.Label { return f(u) }

func relErr(est float64, truth int64) float64 {
	if truth == 0 {
		return 0
	}
	d := est - float64(truth)
	if d < 0 {
		d = -d
	}
	return d / float64(truth)
}
