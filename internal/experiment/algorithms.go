// Package experiment is the evaluation harness: it runs the ten algorithms
// of the paper's Section 5 over repeated independent simulations, measures
// NRMSE against exact ground truth, and renders every table and figure of
// the evaluation as text.
package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// Algorithm names one of the ten evaluated estimators, using the paper's
// abbreviations (Table 2).
type Algorithm string

// The ten algorithms of Table 2.
const (
	NSHH   Algorithm = core.NeighborSampleHH
	NSHT   Algorithm = core.NeighborSampleHT
	NEHH   Algorithm = core.NeighborExplorationHH
	NEHT   Algorithm = core.NeighborExplorationHT
	NERW   Algorithm = core.NeighborExplorationRW
	EXMDRW Algorithm = "EX-MDRW"
	EXMHRW Algorithm = "EX-MHRW"
	EXRW   Algorithm = "EX-RW"
	EXRCMH Algorithm = "EX-RCMH"
	EXGMD  Algorithm = "EX-GMD"
)

// AllAlgorithms returns the ten algorithms in the paper's table-row order.
func AllAlgorithms() []Algorithm {
	return []Algorithm{NSHH, NSHT, NEHH, NEHT, NERW, EXMDRW, EXMHRW, EXRW, EXRCMH, EXGMD}
}

// ProposedAlgorithms returns the five estimators contributed by the paper.
func ProposedAlgorithms() []Algorithm {
	return []Algorithm{NSHH, NSHT, NEHH, NEHT, NERW}
}

// IsProposed reports whether a is one of the paper's own algorithms (as
// opposed to an EX-* adaptation).
func IsProposed(a Algorithm) bool {
	switch a {
	case NSHH, NSHT, NEHH, NEHT, NERW:
		return true
	}
	return false
}

// family groups algorithms that share one sampling walk, so a single run
// can feed several estimators.
type family int

const (
	famNeighborSample family = iota
	famNeighborExploration
	famBaseline // one walk per EX-* method
)

func algFamily(a Algorithm) (family, baseline.Method, error) {
	switch a {
	case NSHH, NSHT:
		return famNeighborSample, "", nil
	case NEHH, NEHT, NERW:
		return famNeighborExploration, "", nil
	case EXRW:
		return famBaseline, baseline.RW, nil
	case EXMHRW:
		return famBaseline, baseline.MHRW, nil
	case EXMDRW:
		return famBaseline, baseline.MDRW, nil
	case EXRCMH:
		return famBaseline, baseline.RCMH, nil
	case EXGMD:
		return famBaseline, baseline.GMD, nil
	}
	return 0, "", fmt.Errorf("experiment: unknown algorithm %q", a)
}

// RunParams carries the per-run knobs shared by all algorithms.
type RunParams struct {
	BurnIn     int
	Alpha      float64 // RCMH control, Li et al. suggest [0, 0.3]
	Delta      float64 // GMD control, Li et al. suggest [0.3, 0.7]
	MaxDegreeG int     // prior knowledge for MDRW/GMD
	ThinGap    int     // HT thinning (0 = use every sample; see core.Options)
	// Cost is NeighborExploration's exploration billing model. RunSweep
	// defaults it to core.ExplorePerNode: one profile fetch per explored
	// node, so the budget axis means the same thing for every algorithm.
	// RunFrequencySweep accepts only the zero value, core.ExploreFree.
	Cost core.CostModel
	// SampleDriven switches k back to "number of samples" (the literal
	// Algorithms 1–2) instead of the default API-call budget.
	SampleDriven bool
	// Walkers is the number of concurrent walkers inside each single
	// estimate (core.Options.Walkers); 0 or 1 runs one walker per estimate,
	// drawing from the repetition's Rng.
	Walkers int
	// Seed roots the per-walker RNG streams when Walkers >= 2. The sweep
	// runner sets it to the cell seed, so multi-walker repetitions stay
	// reproducible regardless of scheduling.
	Seed int64
	// Ctx cancels runs in flight; nil means context.Background().
	Ctx context.Context
}

// RunOneRepetition executes a single repetition of every algorithm at
// sample size (or budget) k and returns the per-algorithm estimates. The
// sweep runner and the benchmark harness share it.
func RunOneRepetition(g *graph.Graph, pair graph.LabelPair, k int, p RunParams, rng *rand.Rand) (map[Algorithm]float64, error) {
	return runFamilies(g, pair, AllAlgorithms(), k, p, rng)
}

// RunOneRepetitionAlgs is RunOneRepetition restricted to the given
// algorithms.
func RunOneRepetitionAlgs(g *graph.Graph, pair graph.LabelPair, k int, p RunParams, algs []Algorithm, rng *rand.Rand) (map[Algorithm]float64, error) {
	return runFamilies(g, pair, algs, k, p, rng)
}

// runFamilies executes one repetition: one walk per needed family, returning
// the estimate of every requested algorithm. A fresh session is created per
// walk so API accounting and crawl caches never leak between algorithms.
func runFamilies(g *graph.Graph, pair graph.LabelPair, algs []Algorithm, k int, p RunParams, rng *rand.Rand) (map[Algorithm]float64, error) {
	need := make(map[family]bool)
	needMethod := make(map[baseline.Method]bool)
	for _, a := range algs {
		fam, m, err := algFamily(a)
		if err != nil {
			return nil, err
		}
		need[fam] = true
		if fam == famBaseline {
			needMethod[m] = true
		}
	}

	out := make(map[Algorithm]float64, len(algs))
	newSession := func() (*osn.Session, error) {
		return osn.NewSession(g, osn.Config{})
	}

	if need[famNeighborSample] {
		s, err := newSession()
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions(p.BurnIn, rng)
		opts.ThinGap = p.ThinGap
		opts.BudgetDriven = !p.SampleDriven
		opts.Walkers = p.Walkers
		opts.Seed = stats.Derive(p.Seed, "ns")
		opts.Ctx = p.Ctx
		res, err := core.NeighborSample(s, pair, k, opts)
		if err != nil {
			return nil, fmt.Errorf("experiment: NeighborSample: %w", err)
		}
		out[NSHH] = res.HH
		out[NSHT] = res.HT
	}
	if need[famNeighborExploration] {
		s, err := newSession()
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions(p.BurnIn, rng)
		opts.ThinGap = p.ThinGap
		opts.BudgetDriven = !p.SampleDriven
		opts.Cost = p.Cost
		opts.Walkers = p.Walkers
		opts.Seed = stats.Derive(p.Seed, "ne")
		opts.Ctx = p.Ctx
		res, err := core.NeighborExploration(s, pair, k, opts)
		if err != nil {
			return nil, fmt.Errorf("experiment: NeighborExploration: %w", err)
		}
		out[NEHH] = res.HH
		out[NEHT] = res.HT
		out[NERW] = res.RW
	}
	for _, a := range algs {
		fam, m, _ := algFamily(a)
		if fam != famBaseline || !needMethod[m] {
			continue
		}
		needMethod[m] = false // run each method once even if listed twice
		s, err := newSession()
		if err != nil {
			return nil, err
		}
		res, err := baseline.Estimate(s, pair, m, k, baseline.Options{
			BurnIn:       p.BurnIn,
			Rng:          rng,
			Alpha:        p.Alpha,
			Delta:        p.Delta,
			MaxDegreeG:   p.MaxDegreeG,
			BudgetDriven: !p.SampleDriven,
			Walkers:      p.Walkers,
			Seed:         stats.Derive(p.Seed, "bl/"+string(m)),
			Ctx:          p.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: baseline %s: %w", m, err)
		}
		out[a] = res.Estimate
	}
	// Keep only what was asked for.
	for a := range out {
		found := false
		for _, want := range algs {
			if a == want {
				found = true
				break
			}
		}
		if !found {
			delete(out, a)
		}
	}
	return out, nil
}
