package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/walk"
)

// Suite regenerates every table and figure of the paper's evaluation
// (Section 5) over the synthetic stand-ins. Graphs are built lazily and
// cached; all randomness derives from Seed.
type Suite struct {
	// Scale multiplies the stand-in sizes (1.0 = defaults in gen.Specs).
	Scale float64
	// Seed roots graph generation and every simulation.
	Seed int64
	// Reps is the number of independent simulations per NRMSE cell
	// (paper: 200).
	Reps int
	// Fractions is the sample-size grid; nil means the paper's 0.5%–5%.
	Fractions []float64
	// Workers bounds parallelism across repetitions; 0 means GOMAXPROCS.
	Workers int
	// Walkers is the number of concurrent walkers inside each single
	// estimate; 0 or 1 keeps the serial estimate paths.
	Walkers int
	// Ctx cancels suite runs in flight; nil means context.Background().
	Ctx context.Context
	// BurnIn is the walk burn-in; 0 means measure the mixing time per graph
	// (eps = 1e-3, sampled starts) exactly as Section 5.1 prescribes.
	BurnIn int
	// Alpha and Delta are the RCMH/GMD controls. Zero values select 0.15
	// and 0.5, the midpoints of the ranges Li et al. recommend.
	Alpha float64
	Delta float64

	mu      sync.Mutex
	graphs  map[gen.StandIn]*graph.Graph
	burnin  map[gen.StandIn]int
	pairs   map[gen.StandIn][]graph.LabelPair
	sweeps  map[sweepKey]*SweepResult
	figures map[int][]FrequencyPoint
}

type sweepKey struct {
	ds   gen.StandIn
	pair graph.LabelPair
}

// NewSuite returns a Suite with the given scale, seed and repetition count.
func NewSuite(scale float64, seed int64, reps int) *Suite {
	return &Suite{
		Scale:   scale,
		Seed:    seed,
		Reps:    reps,
		graphs:  make(map[gen.StandIn]*graph.Graph),
		burnin:  make(map[gen.StandIn]int),
		pairs:   make(map[gen.StandIn][]graph.LabelPair),
		sweeps:  make(map[sweepKey]*SweepResult),
		figures: make(map[int][]FrequencyPoint),
	}
}

// Graph returns the (cached) stand-in graph.
func (s *Suite) Graph(name gen.StandIn) (*graph.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked(name)
}

func (s *Suite) graphLocked(name gen.StandIn) (*graph.Graph, error) {
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	g, err := gen.Build(name, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	s.graphs[name] = g
	return g, nil
}

// MixingTime returns the burn-in used for the stand-in: the configured
// BurnIn, or walk.BurnIn's default — the measured mixing time T(1e-3) over
// sampled starts, floored at 10 steps.
func (s *Suite) MixingTime(name gen.StandIn) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mixingLocked(name)
}

func (s *Suite) mixingLocked(name gen.StandIn) (int, error) {
	if s.BurnIn > 0 {
		return s.BurnIn, nil
	}
	if t, ok := s.burnin[name]; ok {
		return t, nil
	}
	g, err := s.graphLocked(name)
	if err != nil {
		return 0, err
	}
	t, err := walk.BurnIn(context.Background(), g)
	if err != nil {
		return 0, err
	}
	s.burnin[name] = t
	return t, nil
}

// Pairs returns the evaluation label pairs for the stand-in: (1,2) for the
// gender-labeled graphs, otherwise four pairs spanning the frequency
// spectrum (the paper's quartile selection).
func (s *Suite) Pairs(name gen.StandIn) ([]graph.LabelPair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pairsLocked(name)
}

func (s *Suite) pairsLocked(name gen.StandIn) ([]graph.LabelPair, error) {
	if ps, ok := s.pairs[name]; ok {
		return ps, nil
	}
	g, err := s.graphLocked(name)
	if err != nil {
		return nil, err
	}
	var ps []graph.LabelPair
	switch name {
	case gen.Facebook, gen.GooglePlus:
		ps = []graph.LabelPair{{T1: 1, T2: 2}}
	default:
		// Floor the census at a frequency a 5%·|V| budget can estimate at
		// all: scaled-down graphs cannot host the paper's 0.001% pairs
		// (that would be single-digit edge counts).
		minCount := g.NumEdges() / 2000
		if minCount < 20 {
			minCount = 20
		}
		ps = SelectPairsSpanning(g, 4, minCount)
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("experiment: no usable label pairs on %s stand-in", name)
	}
	s.pairs[name] = ps
	return ps, nil
}

// params assembles RunParams for a stand-in.
func (s *Suite) params(name gen.StandIn) (RunParams, error) {
	burn, err := s.MixingTime(name)
	if err != nil {
		return RunParams{}, err
	}
	alpha := s.Alpha
	if alpha == 0 {
		alpha = 0.15
	}
	delta := s.Delta
	if delta == 0 {
		delta = 0.5
	}
	return RunParams{BurnIn: burn, Alpha: alpha, Delta: delta}, nil
}

// Sweep runs (or returns the cached) table sweep for one dataset+pair.
func (s *Suite) Sweep(name gen.StandIn, pair graph.LabelPair) (*SweepResult, error) {
	s.mu.Lock()
	if r, ok := s.sweeps[sweepKey{name, pair}]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()

	g, err := s.Graph(name)
	if err != nil {
		return nil, err
	}
	params, err := s.params(name)
	if err != nil {
		return nil, err
	}
	r, err := RunSweep(SweepConfig{
		Graph:     g,
		Pair:      pair,
		Fractions: s.Fractions,
		Reps:      s.Reps,
		Params:    params,
		Seed:      stats.Derive(s.Seed, fmt.Sprintf("sweep/%s/%v", name, pair)),
		Workers:   s.Workers,
		Walkers:   s.Walkers,
		Ctx:       s.Ctx,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.sweeps[sweepKey{name, pair}] = r
	s.mu.Unlock()
	return r, nil
}

// sweepTableSpec maps paper table numbers 4–17 to (dataset, pair index).
var sweepTableSpec = map[int]struct {
	ds  gen.StandIn
	idx int
}{
	4: {gen.Facebook, 0},
	5: {gen.GooglePlus, 0},
	6: {gen.Pokec, 0}, 7: {gen.Pokec, 1}, 8: {gen.Pokec, 2}, 9: {gen.Pokec, 3},
	10: {gen.Orkut, 0}, 11: {gen.Orkut, 1}, 12: {gen.Orkut, 2}, 13: {gen.Orkut, 3},
	14: {gen.Livejournal, 0}, 15: {gen.Livejournal, 1}, 16: {gen.Livejournal, 2}, 17: {gen.Livejournal, 3},
}

// boundsTableSpec maps paper table numbers 18–22 to datasets.
var boundsTableSpec = map[int]gen.StandIn{
	18: gen.Facebook, 19: gen.GooglePlus, 20: gen.Pokec, 21: gen.Orkut, 22: gen.Livejournal,
}

// bestTableSpec maps paper table numbers 23–26 to datasets.
var bestTableSpec = map[int][]gen.StandIn{
	23: {gen.Facebook, gen.GooglePlus},
	24: {gen.Pokec},
	25: {gen.Orkut},
	26: {gen.Livejournal},
}

// Table renders the reproduction of the numbered paper table (1–26).
func (s *Suite) Table(id int) (string, error) {
	switch {
	case id == 1:
		return s.table1()
	case id == 2:
		return table2(), nil
	case id == 3:
		return s.table3()
	case id >= 4 && id <= 17:
		return s.sweepTable(id)
	case id >= 18 && id <= 22:
		return s.boundsTable(id)
	case id >= 23 && id <= 26:
		return s.bestTable(id)
	}
	return "", fmt.Errorf("experiment: no such paper table %d (have 1-26)", id)
}

// table2 renders the algorithm abbreviation list (the paper's Table 2).
func table2() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 2: abbreviations of algorithms")
	out := [][]string{{"algorithm name", "abbreviation"}}
	rows := []struct{ name, abbr string }{
		{"NeighborSample with the Hansen-Hurwitz estimator", string(NSHH)},
		{"NeighborSample with the Horvitz-Thompson estimator", string(NSHT)},
		{"NeighborExploration with the Hansen-Hurwitz estimator", string(NEHH)},
		{"NeighborExploration with the Horvitz-Thompson estimator", string(NEHT)},
		{"NeighborExploration with the Re-weighted method", string(NERW)},
		{"Existing algorithm using re-weighted method", string(EXRW)},
		{"Existing algorithm using Metropolis-Hastings random walk", string(EXMHRW)},
		{"Existing algorithm using maximum degree random walk", string(EXMDRW)},
		{"Rejection-controlled Metropolis-Hastings on edges", string(EXRCMH)},
		{"General Maximum Degree random walk on edges", string(EXGMD)},
	}
	for _, r := range rows {
		out = append(out, []string{r.name, r.abbr})
	}
	writeAligned(&b, out)
	return b.String()
}

func (s *Suite) table1() (string, error) {
	var rows []DatasetStatsRow
	specs := gen.Specs()
	for _, name := range gen.StandIns() {
		g, err := s.Graph(name)
		if err != nil {
			return "", err
		}
		spec := specs[name]
		rows = append(rows, DatasetStatsRow{
			Name:        string(name),
			Nodes:       g.NumNodes(),
			Edges:       g.NumEdges(),
			MaxDegree:   exact.MaxDegree(g),
			MeanDegree:  2 * float64(g.NumEdges()) / float64(g.NumNodes()),
			PaperNodes:  spec.PaperNodes,
			PaperEdges:  spec.PaperEdges,
			LabelScheme: spec.LabelScheme,
		})
	}
	return RenderDatasetStats(rows, "Table 1: statistics of stand-in datasets (largest connected components)"), nil
}

func (s *Suite) table3() (string, error) {
	// The paper's Table 3 maps Pokec label integers to location names; the
	// stand-in analogue lists the evaluated location labels with their node
	// counts, biggest community first.
	g, err := s.Graph(gen.Pokec)
	if err != nil {
		return "", err
	}
	pairs, err := s.Pairs(gen.Pokec)
	if err != nil {
		return "", err
	}
	freq := exact.LabelFrequencies(g)
	used := make(map[graph.Label]bool)
	for _, p := range pairs {
		used[p.T1] = true
		used[p.T2] = true
	}
	labels := make([]graph.Label, 0, len(used))
	for l := range used {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	var b strings.Builder
	fmt.Fprintln(&b, "Table 3: evaluated location labels in the Pokec stand-in")
	out := [][]string{{"label", "synthetic location", "nodes"}}
	for _, l := range labels {
		out = append(out, []string{
			fmt.Sprintf("%d", l),
			fmt.Sprintf("region-%03d (Zipf rank %d)", l, l),
			fmt.Sprintf("%d", freq[l]),
		})
	}
	writeAligned(&b, out)
	return b.String(), nil
}

// SweepForTable returns the sweep behind a paper table in 4–17, running it
// if not yet cached. Useful for CSV export alongside the rendered table.
func (s *Suite) SweepForTable(id int) (*SweepResult, error) {
	spec, ok := sweepTableSpec[id]
	if !ok {
		return nil, fmt.Errorf("experiment: table %d is not a sweep table (want 4-17)", id)
	}
	pairs, err := s.Pairs(spec.ds)
	if err != nil {
		return nil, err
	}
	if spec.idx >= len(pairs) {
		return nil, fmt.Errorf("experiment: %s stand-in yielded only %d pairs, table %d needs index %d",
			spec.ds, len(pairs), id, spec.idx)
	}
	return s.Sweep(spec.ds, pairs[spec.idx])
}

func (s *Suite) sweepTable(id int) (string, error) {
	spec := sweepTableSpec[id]
	r, err := s.SweepForTable(id)
	if err != nil {
		return "", err
	}
	g, err := s.Graph(spec.ds)
	if err != nil {
		return "", err
	}
	pct := 100 * float64(r.Truth) / float64(g.NumEdges())
	title := fmt.Sprintf("Table %d: %s, target label=%v, number of target edges=%d, percentage=%.4g%%",
		id, spec.ds, r.Config.Pair, r.Truth, pct)
	return RenderSweepTable(r, title), nil
}

func (s *Suite) boundsTable(id int) (string, error) {
	ds := boundsTableSpec[id]
	g, err := s.Graph(ds)
	if err != nil {
		return "", err
	}
	pairs, err := s.Pairs(ds)
	if err != nil {
		return "", err
	}
	approx := estimate.Approx{Eps: 0.1, Delta: 0.1}
	var rows []BoundsRow
	for _, p := range pairs {
		b, err := core.ComputeBounds(g, p, approx)
		if err != nil {
			return "", err
		}
		rows = append(rows, BoundsRow{Pair: p, Bounds: b})
	}
	title := fmt.Sprintf("Table %d: bounds on the number of samples for a (0.1,0.1)-approximation in %s", id, ds)
	return RenderBoundsTable(rows, title), nil
}

func (s *Suite) bestTable(id int) (string, error) {
	var rows []BestRow
	for _, ds := range bestTableSpec[id] {
		pairs, err := s.Pairs(ds)
		if err != nil {
			return "", err
		}
		for _, p := range pairs {
			r, err := s.Sweep(ds, p)
			if err != nil {
				return "", err
			}
			fi := len(r.Fraction) - 1
			alg, val := r.Best(fi)
			rows = append(rows, BestRow{Dataset: string(ds), Pair: p, Alg: alg, NRMSE: val})
		}
	}
	title := fmt.Sprintf("Table %d: best algorithm using 5%%|V| API calls", id)
	return RenderBestTable(rows, title), nil
}

// figureSpec maps figure numbers to datasets.
var figureSpec = map[int]gen.StandIn{
	1: gen.Orkut,
	2: gen.Livejournal,
}

// FigurePoints computes (or returns cached) Figure 1/2 series: NRMSE of the
// proposed algorithms at 5%|V| API calls across the frequency spectrum.
func (s *Suite) FigurePoints(id int) ([]FrequencyPoint, error) {
	ds, ok := figureSpec[id]
	if !ok {
		return nil, fmt.Errorf("experiment: no such paper figure %d (have 1-2)", id)
	}
	s.mu.Lock()
	if pts, ok := s.figures[id]; ok {
		s.mu.Unlock()
		return pts, nil
	}
	s.mu.Unlock()
	g, err := s.Graph(ds)
	if err != nil {
		return nil, err
	}
	params, err := s.params(ds)
	if err != nil {
		return nil, err
	}
	pairs := SelectPairsSpanning(g, 10, 20)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiment: no usable pairs for figure %d on %s", id, ds)
	}
	points, err := RunFrequencySweep(FrequencySweepConfig{
		Graph:    g,
		Pairs:    pairs,
		Fraction: 0.05,
		Reps:     s.Reps,
		Params:   params,
		Seed:     stats.Derive(s.Seed, fmt.Sprintf("figure/%d", id)),
		Workers:  s.Workers,
		Walkers:  s.Walkers,
		Ctx:      s.Ctx,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.figures[id] = points
	s.mu.Unlock()
	return points, nil
}

// Figure renders the reproduction of paper Figure 1 or 2: NRMSE at 5%|V|
// API calls against the relative count of target edges.
func (s *Suite) Figure(id int) (string, error) {
	ds, ok := figureSpec[id]
	if !ok {
		return "", fmt.Errorf("experiment: no such paper figure %d (have 1-2)", id)
	}
	points, err := s.FigurePoints(id)
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("Figure %d: NRMSE vs. relative number of target edges in %s at 5%%|V| API calls", id, ds)
	return RenderFrequencyFigure(points, ProposedAlgorithms(), title), nil
}

// MixingTable renders the Section 5.1 mixing-time measurements for every
// stand-in.
func (s *Suite) MixingTable() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "Mixing times T(1e-3) of the stand-in graphs (sampled starts)")
	out := [][]string{{"network", "mixing time (steps)"}}
	for _, name := range gen.StandIns() {
		t, err := s.MixingTime(name)
		if err != nil {
			return "", err
		}
		out = append(out, []string{string(name), fmt.Sprintf("%d", t)})
	}
	writeAligned(&b, out)
	return b.String(), nil
}
