package repro

import (
	"context"
	"errors"
	"math"
	"testing"
)

func batchGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateStandIn("facebook", 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEstimateBatchSharesOneWalk: a heterogeneous batch — pairs, size,
// census, motif — costs the API calls of one walk, and each answer equals
// the corresponding single-task entry point at the same options.
func TestEstimateBatchSharesOneWalk(t *testing.T) {
	g := batchGraph(t)
	pair := LabelPair{T1: 1, T2: 2}
	opts := MultiPairOptions{Samples: 400, BurnIn: 150, Seed: 9}

	batch, err := EstimateBatch(g, opts,
		TaskRequest{Kind: "pairs", Pairs: []LabelPair{pair}},
		TaskRequest{Kind: "size"},
		TaskRequest{Kind: "census", Top: 3},
		TaskRequest{Kind: "motif", Motif: MotifTriangles, Pairs: []LabelPair{pair}},
		TaskRequest{Kind: "motif", Motif: MotifWedges}, // unlabeled
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Answers) != 5 {
		t.Fatalf("got %d answers", len(batch.Answers))
	}
	if batch.Samples != 400 || batch.APICalls == 0 {
		t.Fatalf("batch accounting wrong: %+v", batch)
	}

	// The batch's walk is the one EstimateManyPairs records for the same
	// options, so the pairs answer is bit-identical to it.
	mp, err := EstimateManyPairs(g, []LabelPair{pair}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if batch.APICalls != mp.APICalls {
		t.Errorf("batch of 5 kinds cost %d calls, a single multi-pair walk %d — sharing broken",
			batch.APICalls, mp.APICalls)
	}
	gotPairs := batch.Answers[0].Pairs
	if len(gotPairs) != 1 || gotPairs[0].NS.HH != mp.Pairs[0].NS.HH {
		t.Errorf("pairs answer differs from EstimateManyPairs: %+v vs %+v", gotPairs, mp.Pairs)
	}

	sz := batch.Answers[1].Size
	if sz == nil || sz.Nodes <= 0 || sz.Collisions <= 0 {
		t.Fatalf("size answer missing or implausible: %+v", sz)
	}
	truthN := float64(g.NumNodes())
	if sz.Nodes < truthN/4 || sz.Nodes > truthN*4 {
		t.Errorf("|V| estimate %.0f wildly off truth %.0f", sz.Nodes, truthN)
	}

	census := batch.Answers[2].Census
	if len(census) == 0 || len(census) > 3 {
		t.Fatalf("census answer has %d rows, want 1..3", len(census))
	}
	for i := 1; i < len(census); i++ {
		if census[i-1].Estimate < census[i].Estimate {
			t.Errorf("census not sorted at %d", i)
		}
	}

	mt := batch.Answers[3].Motif
	if mt == nil || mt.Shape != MotifTriangles || len(mt.Rows) != 1 || mt.Rows[0].Pair == nil {
		t.Fatalf("motif answer wrong: %+v", mt)
	}
	un := batch.Answers[4].Motif
	if un == nil || len(un.Rows) != 1 || un.Rows[0].Pair != nil {
		t.Fatalf("unlabeled motif answer wrong: %+v", un)
	}
	truthW, err := CountMotifsExact(g, MotifWedges, nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Rows[0].Estimate <= 0 || un.Rows[0].Estimate > 10*float64(truthW) {
		t.Errorf("unlabeled wedge estimate %.0f implausible (truth %d)", un.Rows[0].Estimate, truthW)
	}
}

// TestEstimateBatchPartialFailure: a task whose replay fails on the shared
// walk (size with far too few samples for collisions on a collision-poor
// graph) reports its error on ITS answer; the other answers are unaffected.
func TestEstimateBatchPartialFailure(t *testing.T) {
	g, err := GenerateStandIn("pokec", 0.3, 8) // big enough that 6 samples cannot collide
	if err != nil {
		t.Fatal(err)
	}
	batch, err := EstimateBatch(g, MultiPairOptions{Samples: 6, BurnIn: 50, Seed: 2},
		TaskRequest{Kind: "census"},
		TaskRequest{Kind: "size"},
	)
	if err != nil {
		t.Fatalf("batch must survive a per-task replay failure: %v", err)
	}
	if batch.Answers[0].Err != nil || len(batch.Answers[0].Census) == 0 {
		t.Errorf("census answer should be unaffected: %+v", batch.Answers[0])
	}
	if batch.Answers[1].Err == nil {
		t.Errorf("size answer should carry the no-collisions error, got %+v", batch.Answers[1])
	}
}

func TestEstimateBatchValidation(t *testing.T) {
	g := batchGraph(t)
	if _, err := EstimateBatch(g, MultiPairOptions{Samples: 50, BurnIn: 20, Seed: 1}); err == nil {
		t.Error("want error for empty request list")
	}
	// Bad requests are rejected before the walk is paid for.
	if _, err := EstimateBatch(g, MultiPairOptions{Samples: 50, BurnIn: 20, Seed: 1},
		TaskRequest{Kind: "no-such-kind"}); err == nil {
		t.Error("want error for unknown kind")
	}
	if _, err := EstimateBatch(g, MultiPairOptions{Samples: 50, BurnIn: 20, Seed: 1},
		TaskRequest{Kind: "motif", Motif: "squares"}); err == nil {
		t.Error("want error for bad motif shape")
	}
	if _, err := EstimateBatch(g, MultiPairOptions{Samples: 50, BurnIn: 20, Seed: 1},
		TaskRequest{Kind: "pairs"}); err == nil {
		t.Error("want error for pairs without pairs")
	}
}

// TestEstimateSizeMatchesFacade: EstimateGraphSize is now a facade over
// EstimateSize; both must agree exactly, and the full result carries the
// diagnostics.
func TestEstimateSizeMatchesFacade(t *testing.T) {
	g := batchGraph(t)
	n, e, err := EstimateGraphSize(g, 0.3, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateSize(g, SizeOptions{Budget: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Nodes) != math.Float64bits(n) || math.Float64bits(res.Edges) != math.Float64bits(e) {
		t.Errorf("EstimateSize (%v, %v) != EstimateGraphSize (%v, %v)", res.Nodes, res.Edges, n, e)
	}
	if res.Samples == 0 || res.APICalls == 0 || res.Collisions == 0 || res.MeanDegree <= 0 {
		t.Errorf("diagnostics missing: %+v", res)
	}
}

// TestEstimateSizeWalkersAndCancel: the new Walkers/Ctx options work — a
// fleet run is deterministic with CIs, and a canceled context aborts.
func TestEstimateSizeWalkersAndCancel(t *testing.T) {
	g := batchGraph(t)
	run := func() SizeResult {
		r, err := EstimateSize(g, SizeOptions{Samples: 600, BurnIn: 120, Seed: 3, Walkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if math.Float64bits(a.Nodes) != math.Float64bits(b.Nodes) || a.Walkers != 4 {
		t.Errorf("fleet size estimate not deterministic: %+v vs %+v", a, b)
	}
	if !a.NodesCI.Valid() {
		t.Errorf("fleet run should carry a CI: %+v", a.NodesCI)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateSize(g, SizeOptions{Samples: 600, BurnIn: 120, Seed: 3, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestCountMotifsMatchesSingle: CountMotifs' per-pair rows are bit-identical
// to EstimateLabeledMotif at the same seed, and multiple pairs share one
// walk.
func TestCountMotifsMatchesSingle(t *testing.T) {
	g := batchGraph(t)
	pair := LabelPair{T1: 1, T2: 2}
	opts := EstimateOptions{Samples: 300, BurnIn: 120, Seed: 5}

	single, err := EstimateLabeledMotif(g, pair, LabeledWedges, opts)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := CountMotifs(g, MotifWedges, []LabelPair{pair, {T1: 2, T2: 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Rows) != 2 {
		t.Fatalf("got %d rows", len(multi.Rows))
	}
	if math.Float64bits(multi.Rows[0].Estimate) != math.Float64bits(single.Estimate) {
		t.Errorf("multi-pair row %v != single run %v", multi.Rows[0].Estimate, single.Estimate)
	}
	if multi.APICalls != single.APICalls {
		t.Errorf("two pairs cost %d calls, one pair %d — sharing broken", multi.APICalls, single.APICalls)
	}

	// Walkers/Ctx flow through.
	fleet, err := CountMotifs(g, MotifTriangles, nil, EstimateOptions{Samples: 400, BurnIn: 120, Seed: 6, Walkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Walkers != 4 || !fleet.Rows[0].CI.Valid() {
		t.Errorf("fleet motif run missing walkers/CI: %+v", fleet)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountMotifs(g, MotifWedges, nil, EstimateOptions{Samples: 300, BurnIn: 120, Seed: 5, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}

	if _, err := CountMotifs(g, "squares", nil, opts); err == nil {
		t.Error("want error for unknown shape")
	}
}

func TestTaskKindsExposed(t *testing.T) {
	kinds := TaskKinds()
	want := map[string]bool{"pairs": true, "size": true, "census": true, "motif": true, "assortativity": true}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for _, k := range kinds {
		if !want[k] {
			t.Errorf("unexpected kind %q", k)
		}
	}
}
