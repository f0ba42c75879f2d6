package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// AblationReport runs four design-choice ablations on the Facebook stand-in
// and renders them as text. Each study answers a
// question the paper leaves open or implicit:
//
//   - single-walk vs independent restarts: the API cost of ignoring the
//     §4.1.2 optimization;
//   - HT thinning: the accuracy cost of the literal r = 2.5%·k reading;
//   - exploration billing: how the budget accounting choice moves
//     NeighborExploration's NRMSE (the Tables 4–5 question);
//   - walk kind: what the non-backtracking walk of [14] buys.
func (s *Suite) AblationReport() (string, error) {
	g, err := s.Graph(gen.Facebook)
	if err != nil {
		return "", err
	}
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	burn, err := s.MixingTime(gen.Facebook)
	if err != nil {
		return "", err
	}
	k := g.NumNodes() / 20
	reps := s.Reps
	if reps < 10 {
		reps = 10
	}
	seed := stats.Derive(s.Seed, "ablations")

	var b strings.Builder
	fmt.Fprintf(&b, "Ablations on the facebook stand-in (pair %v, k = 5%%|V| = %d, %d reps)\n\n", pair, k, reps)

	// 1. Single walk vs independent restarts: API calls per run.
	{
		var single, indep float64
		for i := 0; i < reps; i++ {
			rng := stats.NewSeedSequence(seed + int64(i)).NextRand()
			sess, err := osn.NewSession(g, osn.Config{})
			if err != nil {
				return "", err
			}
			r1, err := core.NeighborSample(sess, pair, 50, core.DefaultOptions(burn, rng))
			if err != nil {
				return "", err
			}
			single += float64(r1.APICalls)
			sess2, err := osn.NewSession(g, osn.Config{})
			if err != nil {
				return "", err
			}
			r2, err := core.NeighborSampleIndependent(sess2, pair, 50, core.DefaultOptions(burn, rng))
			if err != nil {
				return "", err
			}
			indep += float64(r2.APICalls)
		}
		fmt.Fprintf(&b, "1. sampling 50 edges, burn-in %d (Section 4.1.2 optimization):\n", burn)
		fmt.Fprintf(&b, "   single walk:          %8.0f API calls/run\n", single/float64(reps))
		fmt.Fprintf(&b, "   independent restarts: %8.0f API calls/run (%.1fx)\n\n",
			indep/float64(reps), indep/single)
	}

	// 2. HT thinning.
	{
		fmt.Fprintf(&b, "2. Horvitz-Thompson thinning gap r (paper: 2.5%%k; 0 = use every sample):\n")
		for _, gap := range []int{0, maxOf(2, k/40), maxOf(4, k/10)} {
			ests := make([]float64, 0, reps)
			for i := 0; i < reps; i++ {
				rng := stats.NewSeedSequence(seed + int64(1000+i)).NextRand()
				sess, err := osn.NewSession(g, osn.Config{})
				if err != nil {
					return "", err
				}
				opts := core.DefaultOptions(burn, rng)
				opts.ThinGap = gap
				r, err := core.NeighborSample(sess, pair, k, opts)
				if err != nil {
					return "", err
				}
				ests = append(ests, r.HT)
			}
			fmt.Fprintf(&b, "   r = %3d: NRMSE %.3f\n", gap, stats.NRMSE(ests, truth))
		}
		fmt.Fprintln(&b)
	}

	// 3. Exploration billing at a fixed budget.
	{
		fmt.Fprintf(&b, "3. NeighborExploration-HH at a fixed budget of %d API calls:\n", k)
		for _, tc := range []struct {
			name string
			cost core.CostModel
		}{
			{"free (friend list carries labels)", core.ExploreFree},
			{"per explored node (harness default)", core.ExplorePerNode},
			{"per neighbor (profile fetch each)", core.ExplorePerNeighbor},
		} {
			ests := make([]float64, 0, reps)
			for i := 0; i < reps; i++ {
				rng := stats.NewSeedSequence(seed + int64(2000+i)).NextRand()
				sess, err := osn.NewSession(g, osn.Config{})
				if err != nil {
					return "", err
				}
				opts := core.DefaultOptions(burn, rng)
				opts.BudgetDriven = true
				opts.Cost = tc.cost
				r, err := core.NeighborExploration(sess, pair, k, opts)
				if err != nil {
					return "", err
				}
				ests = append(ests, r.HH)
			}
			fmt.Fprintf(&b, "   %-38s NRMSE %.3f\n", tc.name+":", stats.NRMSE(ests, truth))
		}
		fmt.Fprintln(&b)
	}

	// 4. Walk kind.
	{
		fmt.Fprintf(&b, "4. NeighborSample-HH sampling chain (k = %d samples):\n", k)
		for _, tc := range []struct {
			name string
			kind core.WalkKind
		}{
			{"simple random walk", core.WalkSimple},
			{"non-backtracking walk [14]", core.WalkNonBacktracking},
		} {
			ests := make([]float64, 0, reps)
			for i := 0; i < reps; i++ {
				rng := stats.NewSeedSequence(seed + int64(3000+i)).NextRand()
				sess, err := osn.NewSession(g, osn.Config{})
				if err != nil {
					return "", err
				}
				opts := core.DefaultOptions(burn, rng)
				opts.Walk = tc.kind
				r, err := core.NeighborSample(sess, pair, k, opts)
				if err != nil {
					return "", err
				}
				ests = append(ests, r.HH)
			}
			fmt.Fprintf(&b, "   %-28s NRMSE %.3f\n", tc.name+":", stats.NRMSE(ests, truth))
		}
	}
	return b.String(), nil
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
