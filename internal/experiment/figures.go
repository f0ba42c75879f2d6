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
// sample fraction as the relative count of target edges varies.
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
// When every requested algorithm belongs to the paper's NS/NE families (the
// default — the paper's figures omit the baselines), the sweep runs on the
// shared-trajectory engine: each repetition records ONE walk and replays it
// through the estimators for every pair, so P pairs cost one walk's API
// budget per repetition instead of P walks'. The shared walk evaluates the
// ExploreFree accounting (the literal Algorithm 2, where the friend-list
// response carries the labels a replay needs, whatever the pair); a caller
// who explicitly sets Params.Cost to a billed exploration model keeps the
// historical per-pair sweep, whose budget axis charges exploration — billed
// exploration is inherently per-pair and cannot ride a shared walk. EX-*
// baselines cannot replay a recorded simple walk either (their chains
// differ), so their presence also falls back to the per-pair sweep.
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
	algs := cfg.Algorithms
	if len(algs) == 0 {
		algs = ProposedAlgorithms()
	}
	shared := cfg.Params.Cost == core.ExploreFree
	for _, a := range algs {
		if !IsProposed(a) {
			shared = false
			break
		}
	}
	if shared {
		return runFrequencySweepShared(cfg, algs)
	}
	return runFrequencySweepPerPair(cfg, algs)
}

// runFrequencySweepShared is the shared-trajectory inner loop: one recorded
// walk per repetition answers every pair.
func runFrequencySweepShared(cfg FrequencySweepConfig, algs []Algorithm) ([]FrequencyPoint, error) {
	g := cfg.Graph
	numEdges := float64(g.NumEdges())
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiment: need Reps > 0, got %d", cfg.Reps)
	}
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

// runFrequencySweepPerPair is the historical inner loop: one full sweep per
// pair, each paying its own walks. Only baseline-bearing algorithm sets need
// it.
func runFrequencySweepPerPair(cfg FrequencySweepConfig, algs []Algorithm) ([]FrequencyPoint, error) {
	numEdges := float64(cfg.Graph.NumEdges())
	points := make([]FrequencyPoint, 0, len(cfg.Pairs))
	for i, pair := range cfg.Pairs {
		sw, err := RunSweep(SweepConfig{
			Graph:      cfg.Graph,
			Pair:       pair,
			Fractions:  []float64{cfg.Fraction},
			Reps:       cfg.Reps,
			Algorithms: algs,
			Params:     cfg.Params,
			Seed:       cfg.Seed + int64(i),
			Workers:    cfg.Workers,
			Walkers:    cfg.Walkers,
			Ctx:        cfg.Ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: frequency sweep pair %v: %w", pair, err)
		}
		pt := FrequencyPoint{
			Pair:          pair,
			Count:         sw.Truth,
			RelativeCount: float64(sw.Truth) / numEdges,
			NRMSE:         make(map[Algorithm]float64, len(algs)),
		}
		for _, a := range algs {
			pt.NRMSE[a] = sw.NRMSE[a][0]
		}
		points = append(points, pt)
	}
	return points, nil
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
