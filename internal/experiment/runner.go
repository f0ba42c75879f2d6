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
	"repro/internal/stats"
)

// SweepConfig describes one NRMSE-vs-sample-size experiment: the setting of
// Tables 4–17 of the paper.
type SweepConfig struct {
	// Graph is the (fully known) evaluation graph; the algorithms only see
	// it through metered sessions.
	Graph *graph.Graph
	// Pair is the target edge label.
	Pair graph.LabelPair
	// Fractions are the sample sizes as fractions of |V| (paper: 0.005 to
	// 0.05 in steps of 0.005).
	Fractions []float64
	// Reps is the number of independent simulations per cell (paper: 200).
	Reps int
	// Algorithms to evaluate; nil means all ten.
	Algorithms []Algorithm
	// Params are the shared run knobs. MaxDegreeG is filled from the graph
	// when zero.
	Params RunParams
	// Seed roots all randomness; every (fraction, rep) derives its own
	// stream, so results are reproducible and independent of scheduling.
	Seed int64
	// Workers bounds parallelism across repetitions; 0 means GOMAXPROCS.
	Workers int
	// Walkers is the number of concurrent walkers inside each single
	// estimate (orthogonal to Workers, which parallelizes across
	// repetitions). 0 or 1 keeps the serial estimate paths.
	Walkers int
	// Ctx cancels the sweep in flight; nil means context.Background().
	Ctx context.Context
}

// DefaultFractions returns the paper's sample-size grid: 0.5%–5% of |V| in
// steps of 0.5%.
func DefaultFractions() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = 0.005 * float64(i+1)
	}
	return out
}

// SweepResult holds the NRMSE of every algorithm at every sample size, plus
// the ground truth the errors are measured against.
type SweepResult struct {
	Config    SweepConfig
	Truth     int64
	Fraction  []float64
	NRMSE     map[Algorithm][]float64 // algorithm -> per-fraction NRMSE
	Estimates map[Algorithm][][]float64
}

// cellKey identifies one (fraction index, repetition) unit of work.
type cellKey struct{ fi, rep int }

// repSeeds draws n repetition seeds from one seed sequence rooted at
// (seed, name); a sequence's outputs are pairwise distinct, so no two
// repetitions share a walk. Numbered stats.Derive tags would not do: Derive
// mixes a tag's bytes almost linearly, so tags differing only in trailing
// digits collide ("sweep/fi/rep" gave 164 distinct seeds over the paper's
// 10×200 cells).
func repSeeds(seed int64, name string, n int) []int64 {
	seq := stats.NewSeedSequence(stats.Derive(seed, name))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = seq.Next()
	}
	return seeds
}

// RunSweep executes the sweep. Repetitions run in parallel; randomness is
// derived per (fraction, repetition) so results do not depend on
// interleaving.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("experiment: SweepConfig.Graph is required")
	}
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiment: need Reps > 0, got %d", cfg.Reps)
	}
	if len(cfg.Fractions) == 0 {
		cfg.Fractions = DefaultFractions()
	}
	algs := cfg.Algorithms
	if len(algs) == 0 {
		algs = AllAlgorithms()
	}
	params := cfg.Params
	if params.MaxDegreeG == 0 {
		params.MaxDegreeG = exact.MaxDegree(cfg.Graph)
	}
	// Midpoints of the Li et al. recommended parameter ranges.
	if params.Alpha == 0 {
		params.Alpha = 0.15
	}
	if params.Delta == 0 {
		params.Delta = 0.5
	}
	// Bill one profile fetch per explored node so the budget axis means the
	// same for every algorithm (see core.CostModel); zero value would be
	// ExploreFree, which is only sensible via explicit SampleDriven runs.
	if params.Cost == core.ExploreFree && !params.SampleDriven {
		params.Cost = core.ExplorePerNode
	}
	// SweepConfig-level settings win only when set, so caller-populated
	// RunParams.Walkers/Ctx are not silently discarded.
	if cfg.Walkers != 0 {
		params.Walkers = cfg.Walkers
	}
	if cfg.Ctx != nil {
		params.Ctx = cfg.Ctx
	}
	truth := exact.CountTargetEdges(cfg.Graph, cfg.Pair)
	if truth == 0 {
		return nil, fmt.Errorf("experiment: pair %v has no target edges; NRMSE undefined", cfg.Pair)
	}

	n := cfg.Graph.NumNodes()
	ks := make([]int, len(cfg.Fractions))
	for i, f := range cfg.Fractions {
		k := int(math.Round(f * float64(n)))
		if k < 1 {
			k = 1
		}
		ks[i] = k
	}

	// estimates[alg][fi][rep]
	res := &SweepResult{
		Config:    cfg,
		Truth:     truth,
		Fraction:  append([]float64(nil), cfg.Fractions...),
		NRMSE:     make(map[Algorithm][]float64, len(algs)),
		Estimates: make(map[Algorithm][][]float64, len(algs)),
	}
	for _, a := range algs {
		grid := make([][]float64, len(ks))
		for i := range grid {
			grid[i] = make([]float64, cfg.Reps)
		}
		res.Estimates[a] = grid
	}

	seeds := repSeeds(cfg.Seed, "sweep", len(ks)*cfg.Reps) // cell (fi, rep) at fi*Reps+rep
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	work := make(chan cellKey)
	errs := make(chan error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex // guards writes into res.Estimates rows

	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				if failed.Load() {
					continue // drain remaining work after a failure
				}
				seed := seeds[c.fi*cfg.Reps+c.rep]
				rng := stats.NewSeedSequence(seed).NextRand()
				p := params
				p.Seed = seed // roots per-walker streams inside each estimate
				got, err := runFamilies(cfg.Graph, cfg.Pair, algs, ks[c.fi], p, rng)
				if err != nil {
					failed.Store(true)
					select {
					case errs <- err:
					default:
					}
					continue
				}
				mu.Lock()
				for a, est := range got {
					res.Estimates[a][c.fi][c.rep] = est
				}
				mu.Unlock()
			}
		}()
	}
	for fi := range ks {
		for rep := 0; rep < cfg.Reps; rep++ {
			work <- cellKey{fi, rep}
		}
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	for _, a := range algs {
		row := make([]float64, len(ks))
		for fi := range ks {
			row[fi] = stats.NRMSE(res.Estimates[a][fi], float64(truth))
		}
		res.NRMSE[a] = row
	}
	return res, nil
}

// BiasVariance decomposes an algorithm's squared NRMSE at fraction index fi
// into its relative-bias² and relative-variance components:
// NRMSE² = (bias/F)² + Var/F². The split tells apart estimators that are
// noisy (all the HH/RW family — unbiased, variance-dominated) from ones
// that are systematically off (e.g. HT under strong sample dependence).
func (r *SweepResult) BiasVariance(a Algorithm, fi int) (bias2, variance float64, ok bool) {
	grid, found := r.Estimates[a]
	if !found || fi >= len(grid) {
		return 0, 0, false
	}
	f := float64(r.Truth)
	rb := stats.RelativeBias(grid[fi], f)
	rv := stats.Variance(grid[fi]) / (f * f)
	return rb * rb, rv, true
}

// Best returns the algorithm with the lowest NRMSE at fraction index fi and
// its NRMSE value — the paper's Tables 23–26 summary.
func (r *SweepResult) Best(fi int) (Algorithm, float64) {
	bestAlg := Algorithm("")
	best := math.Inf(1)
	for _, a := range AllAlgorithms() {
		row, ok := r.NRMSE[a]
		if !ok || fi >= len(row) {
			continue
		}
		if row[fi] < best {
			best = row[fi]
			bestAlg = a
		}
	}
	return bestAlg, best
}
