package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// FrequencyPoint is one point of the Figure 1/2 reproduction: the NRMSE of
// each algorithm for one label pair, at a fixed API budget, plotted against
// the pair's relative target-edge count F/|E|.
type FrequencyPoint struct {
	Pair          graph.LabelPair
	Count         int64
	RelativeCount float64
	NRMSE         map[Algorithm]float64
}

// FrequencySweepConfig describes a Figure 1/2 experiment: NRMSE at a fixed
// sample fraction as the relative count of target edges varies. Every
// repetition replays one shared simple walk, so RunFrequencySweep refuses
// EX-* algorithms and any Params.Cost but core.ExploreFree, the zero value.
type FrequencySweepConfig struct {
	Graph *graph.Graph
	// Pairs are the label pairs to evaluate; use SelectPairsSpanning to pick
	// pairs covering the frequency spectrum as the paper does.
	Pairs []graph.LabelPair
	// Fraction is the sample size as a fraction of |V| (paper: 0.05).
	Fraction float64
	Reps     int
	// Algorithms to evaluate; nil means the five proposed algorithms, as the
	// paper's figures omit the baselines.
	Algorithms []Algorithm
	Params     RunParams
	Seed       int64
	Workers    int
	// Walkers is the per-estimate concurrent walker count (see SweepConfig).
	Walkers int
	// Ctx cancels the sweep in flight; nil means context.Background().
	Ctx context.Context
}

// RunFrequencySweep evaluates every pair at the fixed fraction and returns
// one point per pair.
//
// The sweep runs on the shared-trajectory engine: each repetition records
// ONE walk and replays it through the estimators for every pair, so P pairs
// cost one walk's API budget per repetition instead of P walks'. The shared
// walk evaluates the ExploreFree accounting (the literal Algorithm 2, where
// the friend-list response carries the labels a replay needs, whatever the
// pair). A config that sets Params.Cost to a billed exploration model, or
// asks for an EX-* baseline, is refused: billed exploration is per-pair and
// cannot ride a shared walk, and the baselines' chains differ from the
// recorded simple walk. RunSweep evaluates both, one pair at a time.
func RunFrequencySweep(cfg FrequencySweepConfig) ([]FrequencyPoint, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("experiment: FrequencySweepConfig.Graph is required")
	}
	if len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("experiment: no pairs to sweep")
	}
	if cfg.Fraction <= 0 {
		cfg.Fraction = 0.05
	}
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiment: need Reps > 0, got %d", cfg.Reps)
	}
	if cfg.Params.Cost != core.ExploreFree {
		return nil, fmt.Errorf("experiment: frequency sweep cannot bill exploration (Params.Cost must be core.ExploreFree); use RunSweep per pair")
	}
	algs := cfg.Algorithms
	if len(algs) == 0 {
		algs = ProposedAlgorithms()
	}
	for _, a := range algs {
		if !IsProposed(a) {
			return nil, fmt.Errorf("experiment: frequency sweep replays a simple walk and cannot run %s; use RunSweep per pair", a)
		}
	}
	g := cfg.Graph
	numEdges := float64(g.NumEdges())
	truths := make([]int64, len(cfg.Pairs))
	for i, pair := range cfg.Pairs {
		truths[i] = exact.CountTargetEdges(g, pair)
		if truths[i] == 0 {
			return nil, fmt.Errorf("experiment: frequency sweep pair %v: pair %v has no target edges; NRMSE undefined", pair, pair)
		}
	}
	k := int(math.Round(cfg.Fraction * float64(g.NumNodes())))
	if k < 1 {
		k = 1
	}

	// estimates[pi][alg][rep]
	estimates := make([]map[Algorithm][]float64, len(cfg.Pairs))
	for i := range estimates {
		m := make(map[Algorithm][]float64, len(algs))
		for _, a := range algs {
			m[a] = make([]float64, cfg.Reps)
		}
		estimates[i] = m
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Reps {
		workers = cfg.Reps
	}
	seeds := repSeeds(cfg.Seed, "freqshared", cfg.Reps)
	work := make(chan int)
	errs := make(chan error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range work {
				if failed.Load() {
					continue
				}
				if err := runSharedRep(cfg, algs, k, rep, seeds[rep], estimates); err != nil {
					failed.Store(true)
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		work <- rep
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	points := make([]FrequencyPoint, 0, len(cfg.Pairs))
	for i, pair := range cfg.Pairs {
		pt := FrequencyPoint{
			Pair:          pair,
			Count:         truths[i],
			RelativeCount: float64(truths[i]) / numEdges,
			NRMSE:         make(map[Algorithm]float64, len(algs)),
		}
		for _, a := range algs {
			pt.NRMSE[a] = stats.NRMSE(estimates[i][a], float64(truths[i]))
		}
		points = append(points, pt)
	}
	return points, nil
}

// runSharedRep records one repetition's trajectory and replays it for every
// pair, writing into estimates[pi][alg][rep]. Each repetition's randomness
// derives from its own seed (drawn per rep from cfg.Seed), so results are
// reproducible and independent of worker scheduling; per-rep rows are
// disjoint, so no locking is needed.
func runSharedRep(cfg FrequencySweepConfig, algs []Algorithm, k, rep int, seed int64, estimates []map[Algorithm][]float64) error {
	s, err := osn.NewSession(cfg.Graph, osn.Config{})
	if err != nil {
		return err
	}
	walkers := cfg.Walkers
	if walkers == 0 {
		walkers = cfg.Params.Walkers
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = cfg.Params.Ctx
	}
	traj, err := core.RecordTrajectory(s, k, core.Options{
		BurnIn:       cfg.Params.BurnIn,
		Rng:          stats.NewSeedSequence(seed).NextRand(),
		Start:        -1,
		ThinGap:      cfg.Params.ThinGap,
		BudgetDriven: !cfg.Params.SampleDriven,
		Walkers:      walkers,
		Seed:         stats.Derive(seed, "traj"),
		Ctx:          ctx,
	})
	if err != nil {
		return fmt.Errorf("experiment: frequency sweep rep %d: %w", rep, err)
	}
	prs, err := core.EstimateManyPairs(traj, cfg.Pairs)
	if err != nil {
		return fmt.Errorf("experiment: frequency sweep rep %d: %w", rep, err)
	}
	for pi, pe := range prs {
		for _, a := range algs {
			var v float64
			switch a {
			case NSHH:
				v = pe.NS.HH
			case NSHT:
				v = pe.NS.HT
			case NEHH:
				v = pe.NE.HH
			case NEHT:
				v = pe.NE.HT
			case NERW:
				v = pe.NE.RW
			}
			estimates[pi][a][rep] = v
		}
	}
	return nil
}

// SelectPairsSpanning picks count label pairs spanning the frequency
// spectrum: the census (ascending by target-edge count) is divided into
// count equal parts and the middle pair of each part is chosen — the
// deterministic analogue of the paper's "divide them into 4 parts with equal
// size, then pick one target edge label from each part randomly".
//
// Two filters keep the pairs estimable, matching the character of the
// paper's picks: pairs with fewer than minCount target edges are excluded
// (NRMSE against a near-zero truth is all noise), and same-label pairs are
// excluded (every pair the paper evaluates joins two distinct labels; a
// rare (c,c) pair concentrates in one community where no budget-bounded
// walk can pin it down).
func SelectPairsSpanning(g *graph.Graph, count int, minCount int64) []graph.LabelPair {
	census := exact.LabelPairCensus(g)
	filtered := census[:0]
	for _, pc := range census {
		if pc.Count >= minCount && pc.Pair.T1 != pc.Pair.T2 {
			filtered = append(filtered, pc)
		}
	}
	if len(filtered) == 0 || count <= 0 {
		return nil
	}
	if count > len(filtered) {
		count = len(filtered)
	}
	out := make([]graph.LabelPair, 0, count)
	if count == 1 {
		return []graph.LabelPair{filtered[len(filtered)/2].Pair}
	}
	// Include both ends so the picks span the full frequency range, like
	// the paper's four quartile picks spanning 0.001%–0.657% on Orkut.
	for i := 0; i < count; i++ {
		idx := i * (len(filtered) - 1) / (count - 1)
		out = append(out, filtered[idx].Pair)
	}
	return out
}
