package core

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/stats"
)

func TestNeighborSampleNonBacktrackingUnbiased(t *testing.T) {
	g := genderGraph(t, 41)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	const reps = 120
	ests := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		opts := DefaultOptions(150, newRng(int64(2000+i)))
		opts.Walk = WalkNonBacktracking
		res, err := NeighborSample(s, pair, 300, opts)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.HH)
	}
	if bias := stats.RelativeBias(ests, truth); math.Abs(bias) > 0.05 {
		t.Errorf("NBRW NeighborSample-HH relative bias %.3f", bias)
	}
}

func TestNeighborExplorationNonBacktrackingUnbiased(t *testing.T) {
	g := genderGraph(t, 42)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	const reps = 120
	ests := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		opts := DefaultOptions(150, newRng(int64(3000+i)))
		opts.Walk = WalkNonBacktracking
		res, err := NeighborExploration(s, pair, 300, opts)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.HH)
	}
	if bias := stats.RelativeBias(ests, truth); math.Abs(bias) > 0.05 {
		t.Errorf("NBRW NeighborExploration-HH relative bias %.3f", bias)
	}
}

func TestUnknownWalkKindRejected(t *testing.T) {
	g := genderGraph(t, 43)
	s := newSession(t, g)
	opts := DefaultOptions(10, newRng(1))
	opts.Walk = WalkKind(99)
	if _, err := NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, 10, opts); err == nil {
		t.Error("want error for unknown walk kind")
	}
}

func TestBudgetDrivenRespectsBudget(t *testing.T) {
	g := genderGraph(t, 44)
	s := newSession(t, g)
	opts := DefaultOptions(100, newRng(2))
	opts.BudgetDriven = true
	const budget = 150
	res, err := NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Charged calls stop at (or just past) the budget; samples can exceed
	// it when the crawl cache serves revisits for free.
	if res.APICalls > budget+1 {
		t.Errorf("APICalls = %d, want <= %d", res.APICalls, budget+1)
	}
	if res.Samples < budget/2 {
		t.Errorf("Samples = %d suspiciously low for budget %d", res.Samples, budget)
	}
}

func TestBudgetDrivenExplorationSurcharge(t *testing.T) {
	g := genderGraph(t, 45)
	pair := graph.LabelPair{T1: 1, T2: 2}
	const budget = 200

	run := func(cost CostModel) NeighborExplorationResult {
		s := newSession(t, g)
		opts := DefaultOptions(100, newRng(3))
		opts.BudgetDriven = true
		opts.Cost = cost
		res, err := NeighborExploration(s, pair, budget, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(ExploreFree)
	perNode := run(ExplorePerNode)
	perNeighbor := run(ExplorePerNeighbor)

	// Every node is labeled, so every distinct node costs extra under the
	// charged models: sample counts must be strictly ordered.
	if !(perNeighbor.Samples < perNode.Samples && perNode.Samples < free.Samples) {
		t.Errorf("sample ordering wrong: perNeighbor=%d perNode=%d free=%d",
			perNeighbor.Samples, perNode.Samples, free.Samples)
	}
	for _, res := range []NeighborExplorationResult{free, perNode, perNeighbor} {
		if res.APICalls > budget+int64(exact.MaxDegree(g))+1 {
			t.Errorf("APICalls = %d overshoots budget %d by more than one surcharge", res.APICalls, budget)
		}
	}
}

func TestSampleDrivenIgnoresBudgetSemantics(t *testing.T) {
	g := genderGraph(t, 46)
	s := newSession(t, g)
	opts := DefaultOptions(50, newRng(4))
	// Default (BudgetDriven false): k is the exact sample count.
	res, err := NeighborExploration(s, graph.LabelPair{T1: 1, T2: 2}, 77, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 77 {
		t.Errorf("Samples = %d, want exactly 77 in sample-driven mode", res.Samples)
	}
}

func TestNonBacktrackingNeedsNoMoreCalls(t *testing.T) {
	g := genderGraph(t, 49)
	pair := graph.LabelPair{T1: 1, T2: 2}

	sSimple := newSession(t, g)
	simple, err := NeighborSample(sSimple, pair, 200, DefaultOptions(100, newRng(7)))
	if err != nil {
		t.Fatal(err)
	}
	sNB := newSession(t, g)
	optsNB := DefaultOptions(100, newRng(7))
	optsNB.Walk = WalkNonBacktracking
	nb, err := NeighborSample(sNB, pair, 200, optsNB)
	if err != nil {
		t.Fatal(err)
	}
	// NBRW revisits fewer nodes, so with a crawl cache it costs at least as
	// many calls (more distinct fetches) but never more than one per step.
	if nb.APICalls > int64(200+1) || simple.APICalls > int64(200+1) {
		t.Errorf("API calls exceed one per step: simple=%d nb=%d", simple.APICalls, nb.APICalls)
	}
}

func TestHHStdErrBracketsTruth(t *testing.T) {
	// Over many runs, |estimate - truth| should land within ~3 SE most of
	// the time if the batch-means SE is calibrated.
	g := genderGraph(t, 50)
	pair := graph.LabelPair{T1: 1, T2: 2}
	truth := float64(exact.CountTargetEdges(g, pair))
	const reps = 60
	covered := 0
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := NeighborSample(s, pair, 400, DefaultOptions(150, newRng(int64(4000+i))))
		if err != nil {
			t.Fatal(err)
		}
		if res.HHStdErr <= 0 {
			t.Fatalf("run %d: no standard error reported", i)
		}
		if math.Abs(res.HH-truth) <= 3*res.HHStdErr {
			covered++
		}
	}
	// 3-SE coverage should be very high; demand at least 80% to leave room
	// for batch-means noise at this sample size.
	if covered < reps*8/10 {
		t.Errorf("3-SE interval covered truth in only %d/%d runs", covered, reps)
	}
}

func TestHHStdErrZeroForTinySamples(t *testing.T) {
	g := genderGraph(t, 51)
	s := newSession(t, g)
	res, err := NeighborSample(s, graph.LabelPair{T1: 1, T2: 2}, 20, DefaultOptions(50, newRng(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.HHStdErr != 0 {
		t.Errorf("StdErr = %g for 20 samples, want 0 (too few to batch)", res.HHStdErr)
	}
}
