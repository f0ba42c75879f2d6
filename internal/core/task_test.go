package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// taskGraph is the fixed stand-in the pre-refactor census golden was
// recorded on: gen.Build(facebook, 0.15, 5) → |V|=592, |E|=1684.
func taskGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Build(gen.StandIn("facebook"), 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTaskRegistry(t *testing.T) {
	kinds := TaskKinds()
	for _, want := range []string{"pairs", "census"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("kind %q not registered (have %v)", want, kinds)
		}
	}
	if _, ok := LookupTask("no-such-kind"); ok {
		t.Error("LookupTask returned a spec for an unknown kind")
	}
	if _, err := RunTask(nil, "no-such-kind", TaskParams{}); err == nil {
		t.Error("RunTask should reject an unknown kind before touching the trajectory")
	}
	// Parameter validation is a constructor-time error, pre-spend.
	spec, _ := LookupTask("pairs")
	if _, err := spec.NewTask(TaskParams{}); err == nil {
		t.Error("pairs task should require at least one pair")
	}
	spec, _ = LookupTask("census")
	if _, err := spec.NewTask(TaskParams{Top: -1}); err == nil {
		t.Error("census task should reject negative Top")
	}
}

func TestRegisterTaskGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	expectPanic("empty kind", func() { RegisterTask(TaskSpec{}) })
	expectPanic("duplicate kind", func() {
		RegisterTask(TaskSpec{Kind: "pairs", NewTask: func(TaskParams) (EstimationTask, error) { return nil, nil }})
	})
}

// TestCensusGoldenSerial pins the registry-era census to the values the
// pre-refactor private walk loop produced: estimates, hits and sample count
// are bit-identical (the recording draws the same stream). The API bill is
// the trajectory's recording cost — 221 calls where the census-only loop
// billed 220 — because the recording prepays each arrived-at node's friend
// list so the SAME walk can also serve degree-reading tasks.
func TestCensusGoldenSerial(t *testing.T) {
	g := taskGraph(t)
	res, err := estimateCensus(newSession(t, g), 500, Options{
		BurnIn: 150, Rng: rand.New(rand.NewSource(11)), Start: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 500 || res.APICalls != 221 || res.Walkers != 1 {
		t.Errorf("samples=%d calls=%d walkers=%d, want 500/221/1", res.Samples, res.APICalls, res.Walkers)
	}
	want := []PairEstimate{
		{Pair: graph.LabelPair{T1: 2, T2: 2}, Estimate: 842, Hits: 250},
		{Pair: graph.LabelPair{T1: 1, T2: 2}, Estimate: 660.128, Hits: 196},
		{Pair: graph.LabelPair{T1: 1, T2: 1}, Estimate: 181.872, Hits: 54},
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("got %d census rows, want %d", len(res.Pairs), len(want))
	}
	for i, w := range want {
		got := res.Pairs[i]
		if got.Pair != w.Pair || got.Hits != w.Hits ||
			math.Float64bits(got.Estimate) != math.Float64bits(w.Estimate) {
			t.Errorf("row %d: got %+v, want %+v (pre-refactor golden)", i, got, w)
		}
	}
}

// TestCensusReplayMatchesLive: dispatching the census task over an
// already-recorded trajectory equals a fresh recording's census at the same
// seed, and costs no API calls — the replay-consistency contract that lets
// a cached trajectory serve census queries.
func TestCensusReplayMatchesLive(t *testing.T) {
	g := taskGraph(t)
	mkOpts := func() Options {
		return Options{BurnIn: 120, Rng: rand.New(rand.NewSource(31)), Start: -1}
	}
	live, err := estimateCensus(newSession(t, g), 400, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, g)
	traj, err := RecordTrajectory(s, 400, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	before := s.Calls()
	out, err := RunTask(traj, "census", TaskParams{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Calls(); got != before {
		t.Errorf("census replay changed the session bill: %d != %d", got, before)
	}
	replay := out.(CensusResult)
	if replay.Samples != live.Samples || len(replay.Pairs) != len(live.Pairs) {
		t.Fatalf("replay shape differs: %d/%d rows, %d/%d samples",
			len(replay.Pairs), len(live.Pairs), replay.Samples, live.Samples)
	}
	for i := range live.Pairs {
		if replay.Pairs[i] != live.Pairs[i] {
			t.Errorf("row %d differs: %#v vs %#v", i, replay.Pairs[i], live.Pairs[i])
		}
	}
	// Top truncation keeps the head of the same ordering.
	out, err = RunTask(traj, "census", TaskParams{Top: 2})
	if err != nil {
		t.Fatal(err)
	}
	top := out.(CensusResult)
	if len(top.Pairs) != 2 || top.Pairs[0] != replay.Pairs[0] || top.Pairs[1] != replay.Pairs[1] {
		t.Errorf("Top=2 truncation wrong: %#v", top.Pairs)
	}
}

// TestPairsTaskMatchesEstimateManyPairs: the registry's "pairs" kind is the
// same arithmetic as calling EstimateManyPairs directly.
func TestPairsTaskMatchesEstimateManyPairs(t *testing.T) {
	g := taskGraph(t)
	pairs := []graph.LabelPair{{T1: 1, T2: 2}, {T1: 2, T2: 2}}
	traj, err := RecordTrajectory(newSession(t, g), 300, Options{
		BurnIn: 100, Rng: rand.New(rand.NewSource(41)), Start: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EstimateManyPairs(traj, pairs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunTask(traj, "pairs", TaskParams{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	dispatched := out.([]PairEstimates)
	if len(dispatched) != len(direct) {
		t.Fatalf("row counts differ: %d vs %d", len(dispatched), len(direct))
	}
	for i := range direct {
		if dispatched[i].NS.HH != direct[i].NS.HH || dispatched[i].NE.RW != direct[i].NE.RW {
			t.Errorf("pair %v differs between dispatch and direct call", direct[i].Pair)
		}
	}
}

// TestRecordTrajectoryTinyBudgetNotEmpty: a budget-driven recording always
// takes at least one step per walker, even when the start prefetch consumed
// the whole budget (budget 1). An empty trajectory would be cached by the
// serve engine as a "successful" recording that every replay then fails on.
func TestRecordTrajectoryTinyBudgetNotEmpty(t *testing.T) {
	g := taskGraph(t)
	for _, walkers := range []int{1, 2} {
		traj, err := RecordTrajectory(newSession(t, g), walkers, Options{
			BurnIn: 20, Rng: rand.New(rand.NewSource(61)), Start: -1,
			BudgetDriven: true, Walkers: walkers, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		for wi := 0; wi < traj.NumWalkers(); wi++ {
			if traj.WalkerLen(wi) == 0 {
				t.Errorf("walkers=%d: walker %d recorded no steps at budget share 1", walkers, wi)
			}
		}
		// The historical one-trailing-iteration overshoot, nothing more.
		if traj.APICalls > int64(2*walkers) {
			t.Errorf("walkers=%d: tiny budget cost %d calls, want <= %d", walkers, traj.APICalls, 2*walkers)
		}
	}
}

// TestTrajectoryRecordsStarts: every recording carries one start state per
// walker, aligned with its step stream — the invariant triangle replays
// depend on.
func TestTrajectoryRecordsStarts(t *testing.T) {
	g := taskGraph(t)
	for _, walkers := range []int{1, 3} {
		traj, err := RecordTrajectory(newSession(t, g), 90, Options{
			BurnIn: 50, Rng: rand.New(rand.NewSource(51)), Start: -1, Walkers: walkers, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !traj.HasStarts() {
			t.Fatalf("walkers=%d: trajectory lacks per-walker starts", walkers)
		}
		for wi := 0; wi < traj.NumWalkers(); wi++ {
			lo, hi := traj.WalkerSpan(wi)
			if lo == hi {
				continue
			}
			if first, start := traj.StepPrev(lo), traj.StartNode(wi); first != start {
				t.Errorf("walker %d: first step leaves %d, start records %d", wi, first, start)
			}
			if d, ns := traj.StartDegree(wi), traj.StartNeighbors(wi); d != len(ns) {
				t.Errorf("walker %d: start degree %d != |neighbors| %d", wi, d, len(ns))
			}
		}
	}
}
