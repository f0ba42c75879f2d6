// Benchmarks: one per table and figure of the paper's evaluation, in the
// paper's numbering as experiment.Suite uses it, plus ablation benches for
// the design choices experiment.Suite.AblationReport studies and
// micro-benches for the hot paths. Each table/figure bench executes one full
// repetition of the corresponding experiment cell — every algorithm the
// table compares, at the paper's largest budget (5%·|V| API calls) — so
// ns/op tracks the cost of regenerating one NRMSE sample for that artifact.
// cmd/reproduce renders the full tables.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linegraph"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/walk"
)

// benchScale keeps bench graphs small enough for tight iteration while
// preserving every structural property the experiments rely on.
const benchScale = 0.15

var (
	benchMu     sync.Mutex
	benchGraphs = map[gen.StandIn]*graph.Graph{}
	benchPairs  = map[gen.StandIn][]graph.LabelPair{}
)

// benchGraph builds and caches the stand-in once per process.
func benchGraph(b *testing.B, name gen.StandIn) (*graph.Graph, []graph.LabelPair) {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if g, ok := benchGraphs[name]; ok {
		return g, benchPairs[name]
	}
	g, err := gen.Build(name, benchScale, 2018)
	if err != nil {
		b.Fatal(err)
	}
	var pairs []graph.LabelPair
	switch name {
	case gen.Facebook, gen.GooglePlus:
		pairs = []graph.LabelPair{{T1: 1, T2: 2}}
	default:
		minCount := g.NumEdges() / 2000
		if minCount < 10 {
			minCount = 10
		}
		pairs = experiment.SelectPairsSpanning(g, 4, minCount)
	}
	if len(pairs) == 0 {
		b.Fatalf("no usable pairs on %s bench stand-in", name)
	}
	benchGraphs[name] = g
	benchPairs[name] = pairs
	return g, pairs
}

// benchSweepCell runs one repetition of a Tables 4–17 cell: all ten
// algorithms at 5%·|V| API calls.
func benchSweepCell(b *testing.B, name gen.StandIn, pairIdx int) {
	b.Helper()
	g, pairs := benchGraph(b, name)
	if pairIdx >= len(pairs) {
		b.Skipf("stand-in %s yielded %d pairs, need index %d", name, len(pairs), pairIdx)
	}
	pair := pairs[pairIdx]
	k := g.NumNodes() / 20
	if k < 10 {
		k = 10
	}
	params := experiment.RunParams{
		BurnIn: 300, Alpha: 0.15, Delta: 0.5,
		MaxDegreeG: exact.MaxDegree(g), Cost: core.ExplorePerNode,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewSeedSequence(int64(i)).NextRand()
		if _, err := experiment.RunOneRepetition(g, pair, k, params, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1: dataset statistics ---

func BenchmarkTable01Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range gen.StandIns() {
			g, _ := benchGraph(b, name)
			_ = exact.MaxDegree(g)
		}
	}
}

// --- Table 3: label census on the Pokec stand-in ---

func BenchmarkTable03LabelCensus(b *testing.B) {
	g, _ := benchGraph(b, gen.Pokec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = exact.LabelPairCensus(g)
	}
}

// --- Tables 4–17: NRMSE sweeps ---

func BenchmarkTable04Facebook(b *testing.B)    { benchSweepCell(b, gen.Facebook, 0) }
func BenchmarkTable05Googleplus(b *testing.B)  { benchSweepCell(b, gen.GooglePlus, 0) }
func BenchmarkTable06Pokec(b *testing.B)       { benchSweepCell(b, gen.Pokec, 0) }
func BenchmarkTable07Pokec(b *testing.B)       { benchSweepCell(b, gen.Pokec, 1) }
func BenchmarkTable08Pokec(b *testing.B)       { benchSweepCell(b, gen.Pokec, 2) }
func BenchmarkTable09Pokec(b *testing.B)       { benchSweepCell(b, gen.Pokec, 3) }
func BenchmarkTable10Orkut(b *testing.B)       { benchSweepCell(b, gen.Orkut, 0) }
func BenchmarkTable11Orkut(b *testing.B)       { benchSweepCell(b, gen.Orkut, 1) }
func BenchmarkTable12Orkut(b *testing.B)       { benchSweepCell(b, gen.Orkut, 2) }
func BenchmarkTable13Orkut(b *testing.B)       { benchSweepCell(b, gen.Orkut, 3) }
func BenchmarkTable14Livejournal(b *testing.B) { benchSweepCell(b, gen.Livejournal, 0) }
func BenchmarkTable15Livejournal(b *testing.B) { benchSweepCell(b, gen.Livejournal, 1) }
func BenchmarkTable16Livejournal(b *testing.B) { benchSweepCell(b, gen.Livejournal, 2) }
func BenchmarkTable17Livejournal(b *testing.B) { benchSweepCell(b, gen.Livejournal, 3) }

// --- Tables 18–22: theoretical bounds ---

func benchBounds(b *testing.B, name gen.StandIn) {
	b.Helper()
	g, pairs := benchGraph(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			if _, err := TheoreticalBounds(g, p, 0.1, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable18BoundsFacebook(b *testing.B)    { benchBounds(b, gen.Facebook) }
func BenchmarkTable19BoundsGoogleplus(b *testing.B)  { benchBounds(b, gen.GooglePlus) }
func BenchmarkTable20BoundsPokec(b *testing.B)       { benchBounds(b, gen.Pokec) }
func BenchmarkTable21BoundsOrkut(b *testing.B)       { benchBounds(b, gen.Orkut) }
func BenchmarkTable22BoundsLivejournal(b *testing.B) { benchBounds(b, gen.Livejournal) }

// --- Tables 23–26: best-algorithm summaries (one repetition across every
// pair of the summarized datasets) ---

func benchBestSummary(b *testing.B, names ...gen.StandIn) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			g, pairs := benchGraph(b, name)
			params := experiment.RunParams{
				BurnIn: 300, MaxDegreeG: exact.MaxDegree(g), Cost: core.ExplorePerNode,
				Alpha: 0.15, Delta: 0.5,
			}
			rng := stats.NewSeedSequence(int64(i)).NextRand()
			for _, p := range pairs {
				if _, err := experiment.RunOneRepetition(g, p, g.NumNodes()/20, params, rng); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTable23BestFacebookGoogleplus(b *testing.B) {
	benchBestSummary(b, gen.Facebook, gen.GooglePlus)
}
func BenchmarkTable24BestPokec(b *testing.B)       { benchBestSummary(b, gen.Pokec) }
func BenchmarkTable25BestOrkut(b *testing.B)       { benchBestSummary(b, gen.Orkut) }
func BenchmarkTable26BestLivejournal(b *testing.B) { benchBestSummary(b, gen.Livejournal) }

// --- Figures 1–2: frequency sweeps (one repetition of the five proposed
// algorithms over every swept pair) ---

func benchFigure(b *testing.B, name gen.StandIn) {
	b.Helper()
	g, _ := benchGraph(b, name)
	minCount := g.NumEdges() / 2000
	if minCount < 10 {
		minCount = 10
	}
	pairs := experiment.SelectPairsSpanning(g, 6, minCount)
	if len(pairs) == 0 {
		b.Skip("no pairs to sweep")
	}
	params := experiment.RunParams{BurnIn: 300, Cost: core.ExplorePerNode}
	algs := experiment.ProposedAlgorithms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewSeedSequence(int64(i)).NextRand()
		for _, p := range pairs {
			if _, err := experiment.RunOneRepetitionAlgs(g, p, g.NumNodes()/20, params, algs, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure1Orkut(b *testing.B)       { benchFigure(b, gen.Orkut) }
func BenchmarkFigure2Livejournal(b *testing.B) { benchFigure(b, gen.Livejournal) }

// --- Section 5.1: mixing-time measurement ---

func BenchmarkMixingTime(b *testing.B) {
	g, _ := benchGraph(b, gen.Facebook)
	starts := walk.DefaultMixingStarts(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := walk.MixingTime(context.Background(), g, 1e-3, walk.MixingOptions{MaxSteps: 5000, StartNodes: starts}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (experiment.Suite.AblationReport) ---

// BenchmarkAblationSingleWalk vs BenchmarkAblationIndependentRestarts:
// the API cost of the paper's single-walk optimization against textbook
// Algorithm 1. Compare the reported apicalls/op metric.
func BenchmarkAblationSingleWalk(b *testing.B) {
	g, pairs := benchGraph(b, gen.Facebook)
	var calls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions(300, rand.New(rand.NewSource(int64(i))))
		res, err := core.NeighborSample(s, pairs[0], 100, opts)
		if err != nil {
			b.Fatal(err)
		}
		calls += res.APICalls
	}
	b.ReportMetric(float64(calls)/float64(b.N), "apicalls/op")
}

func BenchmarkAblationIndependentRestarts(b *testing.B) {
	g, pairs := benchGraph(b, gen.Facebook)
	var calls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions(300, rand.New(rand.NewSource(int64(i))))
		res, err := core.NeighborSampleIndependent(s, pairs[0], 100, opts)
		if err != nil {
			b.Fatal(err)
		}
		calls += res.APICalls
	}
	b.ReportMetric(float64(calls)/float64(b.N), "apicalls/op")
}

// BenchmarkAblationThinning sweeps the HT thinning gap r (the paper fixes
// r = 2.5%·k; 0 uses every sample). The nrmse/op metric shows the accuracy
// cost of each setting.
func BenchmarkAblationThinning(b *testing.B) {
	g, pairs := benchGraph(b, gen.Facebook)
	truth := float64(exact.CountTargetEdges(g, pairs[0]))
	k := g.NumNodes() / 20
	// Gaps as fractions of k: 0 (use all), the paper's 2.5%·k, 10%·k;
	// floored so each setting stays distinct on small bench graphs.
	gaps := []int{0, maxInt(2, k/40), maxInt(4, k/10)}
	for _, gap := range gaps {
		gap := gap
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			ests := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				s, err := osn.NewSession(g, osn.Config{})
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions(300, rand.New(rand.NewSource(int64(i))))
				opts.ThinGap = gap
				res, err := core.NeighborSample(s, pairs[0], k, opts)
				if err != nil {
					b.Fatal(err)
				}
				ests = append(ests, res.HT)
			}
			b.ReportMetric(stats.NRMSE(ests, truth), "nrmse")
		})
	}
}

// BenchmarkAblationWalkKind compares the simple and non-backtracking walks
// driving NeighborSample at equal sample counts; NBRW should match or beat
// SRW's nrmse (Lee et al. [14], the related-work improvement).
func BenchmarkAblationWalkKind(b *testing.B) {
	g, pairs := benchGraph(b, gen.Facebook)
	truth := float64(exact.CountTargetEdges(g, pairs[0]))
	k := g.NumNodes() / 20
	for _, tc := range []struct {
		name string
		kind core.WalkKind
	}{
		{"simple", core.WalkSimple},
		{"nonbacktracking", core.WalkNonBacktracking},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			ests := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				s, err := osn.NewSession(g, osn.Config{})
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions(300, rand.New(rand.NewSource(int64(i))))
				opts.Walk = tc.kind
				res, err := core.NeighborSample(s, pairs[0], k, opts)
				if err != nil {
					b.Fatal(err)
				}
				ests = append(ests, res.HH)
			}
			b.ReportMetric(stats.NRMSE(ests, truth), "nrmse")
		})
	}
}

// BenchmarkAblationCostModel compares NeighborExploration accuracy under
// the three exploration billing models at a fixed API budget.
func BenchmarkAblationCostModel(b *testing.B) {
	g, pairs := benchGraph(b, gen.Facebook)
	truth := float64(exact.CountTargetEdges(g, pairs[0]))
	k := g.NumNodes() / 20
	for _, tc := range []struct {
		name string
		cost core.CostModel
	}{
		{"free", core.ExploreFree},
		{"pernode", core.ExplorePerNode},
		{"perneighbor", core.ExplorePerNeighbor},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			ests := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				s, err := osn.NewSession(g, osn.Config{})
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions(300, rand.New(rand.NewSource(int64(i))))
				opts.BudgetDriven = true
				opts.Cost = tc.cost
				res, err := core.NeighborExploration(s, pairs[0], k, opts)
				if err != nil {
					b.Fatal(err)
				}
				ests = append(ests, res.HH)
			}
			b.ReportMetric(stats.NRMSE(ests, truth), "nrmse")
		})
	}
}

// --- Micro-benches on hot paths ---

func BenchmarkWalkStepSimple(b *testing.B) {
	g, _ := benchGraph(b, gen.Orkut)
	w := walk.NewSimple[graph.Node](walk.GraphSpace{G: g}, 0, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalkStepMetropolisHastings(b *testing.B) {
	g, _ := benchGraph(b, gen.Orkut)
	w := walk.NewMetropolisHastings[graph.Node](walk.GraphSpace{G: g}, 0, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLineGraphStep(b *testing.B) {
	g, _ := benchGraph(b, gen.Orkut)
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		b.Fatal(err)
	}
	view := linegraph.View{S: s}
	rng := rand.New(rand.NewSource(1))
	start, err := view.RandomEdge(rng)
	if err != nil {
		b.Fatal(err)
	}
	w := walk.NewSimple[graph.Edge](view, start, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborAccess(b *testing.B) {
	g, _ := benchGraph(b, gen.Orkut)
	n := graph.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns := g.Neighbors(n)
		n = ns[i%len(ns)]
	}
}

func BenchmarkTargetDegree(b *testing.B) {
	g, pairs := benchGraph(b, gen.Pokec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.TargetDegree(graph.Node(i%g.NumNodes()), pairs[0])
	}
}

func BenchmarkExactCount(b *testing.B) {
	g, pairs := benchGraph(b, gen.Pokec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = exact.CountTargetEdges(g, pairs[0])
	}
}

func BenchmarkGenerateStandIn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.Build(gen.Facebook, 0.05, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
