package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/osn"
)

// livePin is one NeighborSample or NeighborExploration run on
// genderGraph(t, 31) for the pair (1, 2): burn-in 100, Rng seed 77, walker
// seed 99.
type livePin struct {
	name    string
	ne      bool
	k       int
	walkers int
	budget  bool
	cost    CostModel
	thin    int
	walk    WalkKind
}

// livePinWant is a pinned outcome: the next draw of the caller's Rng after
// the run (the runs must consume it exactly like the historical loops,
// because the experiment harness shares one Rng across algorithms), and
// every field of the result.
type livePinWant struct {
	rngAfter int64
	ns       NeighborSampleResult
	ne       NeighborExplorationResult
}

func livePinCases() []livePin {
	ps := []livePin{
		{name: "ns/w1/samples", k: 500},
		{name: "ns/w1/budget", k: 300, budget: true},
		{name: "ns/w4/samples", k: 500, walkers: 4},
		{name: "ns/w4/budget", k: 300, walkers: 4, budget: true},
		{name: "ns/w1/samples/thin", k: 500, thin: 7},
		{name: "ns/w4/budget/nbrw", k: 300, walkers: 4, budget: true, walk: WalkNonBacktracking},
		{name: "ns/w1/budget/tiny", k: 1, budget: true},
		{name: "ns/w4/budget/tiny", k: 4, walkers: 4, budget: true},
	}
	for _, w := range []int{1, 4} {
		for _, budget := range []bool{false, true} {
			for _, cost := range []CostModel{ExploreFree, ExplorePerNode, ExplorePerNeighbor} {
				mode, k := "samples", 500
				if budget {
					mode, k = "budget", 300
				}
				ps = append(ps, livePin{
					name: fmt.Sprintf("ne/w%d/%s/%s", w, mode, [...]string{"free", "pernode", "perneighbor"}[cost]),
					ne:   true, k: k, walkers: w, budget: budget, cost: cost,
				})
			}
		}
	}
	return append(ps,
		livePin{name: "ne/w4/samples/thin", ne: true, k: 500, walkers: 4, thin: 7},
		livePin{name: "ne/w1/budget/perneighbor/tiny", ne: true, k: 1, budget: true, cost: ExplorePerNeighbor},
	)
}

// livePinWants holds the results the live walk loops produced before
// NeighborSample and NeighborExploration became a recording plus a replay.
// The wrappers must reproduce them bit for bit: same samples, same bill,
// same Rng consumption.
var livePinWants = map[string]livePinWant{
	"ns/w1/samples":                 {rngAfter: 3882705458578102552, ns: NeighborSampleResult{HH: 2979.03, HHStdErr: 164.67, HT: 2646.150892791886, Samples: 500, DistinctEdges: 436, TargetHits: 199, APICalls: 352, Walkers: 1}},
	"ns/w1/budget":                  {rngAfter: 1583760351878072268, ns: NeighborSampleResult{HH: 2976.1785714285716, HHStdErr: 181.51353965441052, HT: 2693.7623806980228, Samples: 420, DistinctEdges: 370, TargetHits: 167, APICalls: 300, Walkers: 1}},
	"ns/w4/samples":                 {rngAfter: 8870694286263313460, ns: NeighborSampleResult{HH: 3173.64, HHStdErr: 208.86592637383438, HT: 2847.320258910567, Samples: 500, DistinctEdges: 438, TargetHits: 212, APICalls: 410, Walkers: 4, HHCI: CI{Low: 2764.27030670969, High: 3583.0096932903098, StdErr: 208.86592637383438, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2542.078408214112, High: 3163.5851045690174, StdErr: 158.5505400245288, Level: 0.95, Walkers: 4}}},
	"ns/w4/budget":                  {rngAfter: 8870694286263313460, ns: NeighborSampleResult{HH: 3046.220930232558, HHStdErr: 283.3232396346955, HT: 2804.8982739744492, Samples: 344, DistinctEdges: 310, TargetHits: 140, APICalls: 300, Walkers: 4, HHCI: CI{Low: 2481.5312180832393, High: 3592.1379094176677, StdErr: 283.3232396346955, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2288.5453045232075, High: 3338.6630620786805, StdErr: 267.8921056301718, Level: 0.95, Walkers: 4}}},
	"ns/w1/samples/thin":            {rngAfter: 3882705458578102552, ns: NeighborSampleResult{HH: 2979.03, HHStdErr: 164.67, HT: 3283.4047829937513, Samples: 500, DistinctEdges: 72, TargetHits: 199, APICalls: 352, Walkers: 1}},
	"ns/w4/budget/nbrw":             {rngAfter: 8870694286263313460, ns: NeighborSampleResult{HH: 2789.44099378882, HHStdErr: 297.35841640644657, HT: 2802.1901157012094, Samples: 322, DistinctEdges: 315, TargetHits: 120, APICalls: 300, Walkers: 4, HHCI: CI{Low: 2221.0992486619607, High: 3386.7228219749595, StdErr: 297.35841640644657, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2111.8850890868307, High: 3437.0620312071824, StdErr: 338.0615543380333, Level: 0.95, Walkers: 4}}},
	"ns/w1/budget/tiny":             {rngAfter: 5614870588837721570, ns: NeighborSampleResult{HH: 7485, HHStdErr: 0, HT: 7485, Samples: 1, DistinctEdges: 1, TargetHits: 1, APICalls: 1, Walkers: 1}},
	"ns/w4/budget/tiny":             {rngAfter: 8870694286263313460, ns: NeighborSampleResult{HH: 3742.5, HHStdErr: 2160.7333824421744, HT: 3743.2500835059122, Samples: 4, DistinctEdges: 4, TargetHits: 2, APICalls: 4, Walkers: 4, HHCI: CI{Low: -492.45960978007133, High: 7977.459609780071, StdErr: 2160.7333824421744, Level: 0.95, Walkers: 4}, HTCI: CI{Low: -492.45960978007133, High: 7977.459609780071, StdErr: 2160.7333824421744, Level: 0.95, Walkers: 4}}},
	"ne/w1/samples/free":            {rngAfter: 3882705458578102552, ne: NeighborExplorationResult{HH: 3030.511963211435, HHStdErr: 70.34916620700776, HT: 2830.5480821620126, RW: 3133.5284240645774, Samples: 500, DistinctNodes: 352, Explorations: 352, TargetEdgeMass: 4546, APICalls: 353, Walkers: 1}},
	"ne/w1/samples/pernode":         {rngAfter: 3882705458578102552, ne: NeighborExplorationResult{HH: 3030.511963211435, HHStdErr: 70.34916620700776, HT: 2830.5480821620126, RW: 3133.5284240645774, Samples: 500, DistinctNodes: 352, Explorations: 352, TargetEdgeMass: 4546, APICalls: 705, Walkers: 1}},
	"ne/w1/samples/perneighbor":     {rngAfter: 3882705458578102552, ne: NeighborExplorationResult{HH: 3030.511963211435, HHStdErr: 70.34916620700776, HT: 2830.5480821620126, RW: 3133.5284240645774, Samples: 500, DistinctNodes: 352, Explorations: 352, TargetEdgeMass: 4546, APICalls: 6271, Walkers: 1}},
	"ne/w1/budget/free":             {rngAfter: 4128662165714723041, ne: NeighborExplorationResult{HH: 3033.2170125339635, HHStdErr: 86.13170918174079, HT: 2757.872190092789, RW: 3150.417823046277, Samples: 419, DistinctNodes: 299, Explorations: 299, TargetEdgeMass: 3852, APICalls: 300, Walkers: 1}},
	"ne/w1/budget/pernode":          {rngAfter: 2014233147673714406, ne: NeighborExplorationResult{HH: 3107.8787218111875, HHStdErr: 176.90473647299444, HT: 2949.4283077871046, RW: 3166.1767356972914, Samples: 179, DistinctNodes: 150, Explorations: 150, TargetEdgeMass: 1647, APICalls: 301, Walkers: 1}},
	"ne/w1/budget/perneighbor":      {rngAfter: 7177438853645009302, ne: NeighborExplorationResult{HH: 3051.122420264793, HHStdErr: 0, HT: 3075.131797406668, RW: 2714.636898983582, Samples: 15, DistinctNodes: 15, Explorations: 15, TargetEdgeMass: 102, APICalls: 333, Walkers: 1}},
	"ne/w4/samples/free":            {rngAfter: 8870694286263313460, ne: NeighborExplorationResult{HH: 3131.3478597693993, HHStdErr: 64.66134076444357, HT: 2839.5842920796604, RW: 3126.3177283871637, Samples: 500, DistinctNodes: 349, Explorations: 410, TargetEdgeMass: 4438, APICalls: 413, Walkers: 4, HHCI: CI{Low: 3004.6139606790175, High: 3258.0817588597793, StdErr: 64.66134076444357, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2718.1553462193724, High: 2826.678114110967, StdErr: 27.684888280501177, Level: 0.95, Walkers: 4}, RWCI: CI{Low: 2975.7737596738575, High: 3279.8359656110947, StdErr: 77.56831460568701, Level: 0.95, Walkers: 4}}},
	"ne/w4/samples/pernode":         {rngAfter: 8870694286263313460, ne: NeighborExplorationResult{HH: 3131.3478597693993, HHStdErr: 64.66134076444357, HT: 2839.5842920796604, RW: 3126.3177283871637, Samples: 500, DistinctNodes: 349, Explorations: 410, TargetEdgeMass: 4438, APICalls: 823, Walkers: 4, HHCI: CI{Low: 3004.6139606790175, High: 3258.0817588597793, StdErr: 64.66134076444357, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2718.1553462193724, High: 2826.678114110967, StdErr: 27.684888280501177, Level: 0.95, Walkers: 4}, RWCI: CI{Low: 2975.7737596738575, High: 3279.8359656110947, StdErr: 77.56831460568701, Level: 0.95, Walkers: 4}}},
	"ne/w4/samples/perneighbor":     {rngAfter: 8870694286263313460, ne: NeighborExplorationResult{HH: 3131.3478597693993, HHStdErr: 64.66134076444357, HT: 2839.5842920796604, RW: 3126.3177283871637, Samples: 500, DistinctNodes: 349, Explorations: 410, TargetEdgeMass: 4438, APICalls: 8565, Walkers: 4, HHCI: CI{Low: 3004.6139606790175, High: 3258.0817588597793, StdErr: 64.66134076444357, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2718.1553462193724, High: 2826.678114110967, StdErr: 27.684888280501177, Level: 0.95, Walkers: 4}, RWCI: CI{Low: 2975.7737596738575, High: 3279.8359656110947, StdErr: 77.56831460568701, Level: 0.95, Walkers: 4}}},
	"ne/w4/budget/free":             {rngAfter: 8870694286263313460, ne: NeighborExplorationResult{HH: 3029.627572388778, HHStdErr: 71.32973395253792, HT: 2828.230643350277, RW: 3098.004004686521, Samples: 340, DistinctNodes: 258, Explorations: 297, TargetEdgeMass: 3169, APICalls: 300, Walkers: 4, HHCI: CI{Low: 2885.306275396672, High: 3164.9136945442683, StdErr: 71.32973395253792, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2681.7775277199084, High: 2932.621543975369, StdErr: 63.99199634128142, Level: 0.95, Walkers: 4}, RWCI: CI{Low: 2863.57073278952, High: 3329.2974538928997, StdErr: 118.8100201781698, Level: 0.95, Walkers: 4}}},
	"ne/w4/budget/pernode":          {rngAfter: 8870694286263313460, ne: NeighborExplorationResult{HH: 2953.305044114509, HHStdErr: 160.30099640399166, HT: 2761.953345933866, RW: 3029.549377898217, Samples: 162, DistinctNodes: 136, Explorations: 149, TargetEdgeMass: 1437, APICalls: 301, Walkers: 4, HHCI: CI{Low: 2631.729579396091, High: 3260.097938671508, StdErr: 160.30099640399166, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 2537.0507758217113, High: 3079.99011837179, StdErr: 138.50747943143733, Level: 0.95, Walkers: 4}, RWCI: CI{Low: 2796.143115124698, High: 3245.0485337801365, StdErr: 114.51879274220026, Level: 0.95, Walkers: 4}}},
	"ne/w4/budget/perneighbor":      {rngAfter: 8870694286263313460, ne: NeighborExplorationResult{HH: 4021.4425801433763, HHStdErr: 141.15776569735576, HT: 3821.3106609229885, RW: 4253.7266199180885, Samples: 21, DistinctNodes: 20, Explorations: 20, TargetEdgeMass: 193, APICalls: 361, Walkers: 4, HHCI: CI{Low: 3750.331407872519, High: 4303.65968168244, StdErr: 141.15776569735576, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 3388.453333152983, High: 4320.244237765388, StdErr: 237.7061292866228, Level: 0.95, Walkers: 4}, RWCI: CI{Low: 3832.9097789099324, High: 4988.490885227617, StdErr: 294.7965155055809, Level: 0.95, Walkers: 4}}},
	"ne/w4/samples/thin":            {rngAfter: 8870694286263313460, ne: NeighborExplorationResult{HH: 3131.3478597693993, HHStdErr: 64.66134076444357, HT: 3375.403589470821, RW: 3126.3177283871637, Samples: 500, DistinctNodes: 69, Explorations: 410, TargetEdgeMass: 4438, APICalls: 413, Walkers: 4, HHCI: CI{Low: 3004.6139606790175, High: 3258.0817588597793, StdErr: 64.66134076444357, Level: 0.95, Walkers: 4}, HTCI: CI{Low: 3094.1523380181175, High: 3630.982748458428, StdErr: 136.94904974651584, Level: 0.95, Walkers: 4}, RWCI: CI{Low: 2975.7737596738575, High: 3279.8359656110947, StdErr: 77.56831460568701, Level: 0.95, Walkers: 4}}},
	"ne/w1/budget/perneighbor/tiny": {rngAfter: 5614870588837721570, ne: NeighborExplorationResult{HH: 2495, HHStdErr: 0, HT: 2495, RW: 1500, Samples: 1, DistinctNodes: 1, Explorations: 1, TargetEdgeMass: 2, APICalls: 8, Walkers: 1}},
}

func TestLivePinsReproduced(t *testing.T) {
	g := genderGraph(t, 31)
	pair := graph.LabelPair{T1: 1, T2: 2}
	for _, c := range livePinCases() {
		want, ok := livePinWants[c.name]
		if !ok {
			t.Fatalf("%s: no pinned result", c.name)
		}
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{BurnIn: 100, Rng: rand.New(rand.NewSource(77)), Start: -1, BudgetDriven: c.budget,
			Walkers: c.walkers, Seed: 99, Cost: c.cost, ThinGap: c.thin, Walk: c.walk}
		var got livePinWant
		if c.ne {
			got.ne, err = NeighborExploration(s, pair, c.k, opts)
		} else {
			got.ns, err = NeighborSample(s, pair, c.k, opts)
		}
		got.rngAfter = opts.Rng.Int63()
		switch {
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !reflect.DeepEqual(got, want):
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

// failingSource is an upstream whose failAt-th friend-list fetch (counting
// from 1) fails; every other fetch is answered from the in-memory graph.
// Not being an osn.GraphSource, it runs the session's shared-cache path.
type failingSource struct {
	osn.GraphSource
	failAt int64
	calls  atomic.Int64
}

var errUpstream = errors.New("upstream failure")

func (f *failingSource) Neighbors(u graph.Node) ([]graph.Node, error) {
	if f.calls.Add(1) == f.failAt {
		return nil, errUpstream
	}
	return f.GraphSource.Neighbors(u)
}

// TestNeighborSampleLookAheadError pins NeighborSample's look-ahead error
// rule (see billing.lookAhead): the recording buys each arrival's friend
// list one step before the live walk would, so a failed purchase surfaces
// only where the live walk would have made it. Failing the last fetch the
// live walk needs ends the run with that error; failing the look-ahead
// purchase for the last arrival, which the live walk never made, leaves the
// result bit for bit clean. NeighborExploration, whose live walk made that
// purchase too, fails on it.
func TestNeighborSampleLookAheadError(t *testing.T) {
	g := genderGraph(t, 31)
	pair := graph.LabelPair{T1: 1, T2: 2}
	session := func(failAt int64) (*osn.Session, *failingSource) {
		src := &failingSource{GraphSource: osn.NewGraphSource(g), failAt: failAt}
		s, err := osn.NewSessionFrom(src, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s, src
	}
	opts := func() Options { return Options{BurnIn: 100, Rng: rand.New(rand.NewSource(77)), Start: -1} }
	run := func(failAt int64) (NeighborSampleResult, int64, error) {
		s, src := session(failAt)
		res, err := NeighborSample(s, pair, 200, opts())
		return res, src.calls.Load(), err
	}
	clean, calls, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 255 {
		t.Fatalf("clean run made %d upstream calls, want 255", calls)
	}
	if _, _, err := run(254); !errors.Is(err, errUpstream) || !strings.Contains(err.Error(), "core: recording step 199: ") {
		t.Errorf("failing call 254: err = %v, want the upstream failure at recording step 199", err)
	}
	got, _, err := run(255)
	if err != nil {
		t.Fatalf("failing call 255, the unneeded look-ahead purchase: %v", err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Errorf("failing call 255 changed the result:\n got %+v\nwant %+v", got, clean)
	}
	s, _ := session(255)
	if _, err := NeighborExploration(s, pair, 200, opts()); !errors.Is(err, errUpstream) || !strings.Contains(err.Error(), "core: recording step 199: ") {
		t.Errorf("NeighborExploration, failing call 255: err = %v, want the upstream failure at recording step 199", err)
	}
}
