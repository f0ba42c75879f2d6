package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// replayPair records a trajectory over a fresh session and replays it for
// the given pairs.
func replayPair(t *testing.T, g *graph.Graph, k int, opts Options, pairs ...graph.LabelPair) ([]PairEstimates, *Trajectory) {
	t.Helper()
	s := newSession(t, g)
	traj, err := RecordTrajectory(s, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	prs, err := EstimateManyPairs(traj, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(prs) != len(pairs) {
		t.Fatalf("got %d pair results, want %d", len(prs), len(pairs))
	}
	return prs, traj
}

// TestEstimateManyPairsMatchesSerial pins the consistency contract: in
// sample-driven mode a replayed trajectory reproduces standalone
// NeighborSample AND NeighborExploration results bit for bit for the same
// seed — same walk, same estimators, same arithmetic.
func TestEstimateManyPairsMatchesSerial(t *testing.T) {
	g := genderGraph(t, 11)
	pair := graph.LabelPair{T1: 1, T2: 2}
	const k, burn, seed = 600, 100, 77
	mkOpts := func() Options {
		return Options{BurnIn: burn, Rng: rand.New(rand.NewSource(seed)), Start: -1}
	}

	nsRes, err := NeighborSample(newSession(t, g), pair, k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	neRes, err := NeighborExploration(newSession(t, g), pair, k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	prs, traj := replayPair(t, g, k, mkOpts(), pair)
	pe := prs[0]

	if pe.NS.HH != nsRes.HH || pe.NS.HT != nsRes.HT {
		t.Errorf("NS replay: HH/HT = %g/%g, standalone %g/%g", pe.NS.HH, pe.NS.HT, nsRes.HH, nsRes.HT)
	}
	if pe.NS.HHStdErr != nsRes.HHStdErr {
		t.Errorf("NS replay stderr %g != %g", pe.NS.HHStdErr, nsRes.HHStdErr)
	}
	if pe.NS.Samples != nsRes.Samples || pe.NS.TargetHits != nsRes.TargetHits || pe.NS.DistinctEdges != nsRes.DistinctEdges {
		t.Errorf("NS replay counts %+v vs %+v", pe.NS, nsRes)
	}
	if pe.NE.HH != neRes.HH || pe.NE.HT != neRes.HT || pe.NE.RW != neRes.RW {
		t.Errorf("NE replay: HH/HT/RW = %g/%g/%g, standalone %g/%g/%g",
			pe.NE.HH, pe.NE.HT, pe.NE.RW, neRes.HH, neRes.HT, neRes.RW)
	}
	if pe.NE.HHStdErr != neRes.HHStdErr {
		t.Errorf("NE replay stderr %g != %g", pe.NE.HHStdErr, neRes.HHStdErr)
	}
	if pe.NE.Samples != neRes.Samples || pe.NE.TargetEdgeMass != neRes.TargetEdgeMass ||
		pe.NE.DistinctNodes != neRes.DistinctNodes || pe.NE.Explorations != neRes.Explorations {
		t.Errorf("NE replay counts %+v vs %+v", pe.NE, neRes)
	}
	if traj.Samples() != k {
		t.Errorf("trajectory has %d samples, want %d", traj.Samples(), k)
	}
}

// TestEstimateManyPairsMatchesParallel is the multi-walker version of the
// consistency contract, including the between-walker confidence intervals.
func TestEstimateManyPairsMatchesParallel(t *testing.T) {
	g := genderGraph(t, 12)
	pair := graph.LabelPair{T1: 1, T2: 2}
	const k, burn = 600, 100
	mkOpts := func() Options {
		return Options{BurnIn: burn, Rng: rand.New(rand.NewSource(5)), Start: -1, Walkers: 4, Seed: 99}
	}

	nsRes, err := NeighborSample(newSession(t, g), pair, k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	neRes, err := NeighborExploration(newSession(t, g), pair, k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	prs, traj := replayPair(t, g, k, mkOpts(), pair)
	pe := prs[0]

	if traj.Walkers != 4 {
		t.Fatalf("trajectory walkers = %d, want 4", traj.Walkers)
	}
	if pe.NS.HH != nsRes.HH || pe.NS.HT != nsRes.HT {
		t.Errorf("NS replay: HH/HT = %g/%g, standalone %g/%g", pe.NS.HH, pe.NS.HT, nsRes.HH, nsRes.HT)
	}
	if pe.NS.HHCI != nsRes.HHCI || pe.NS.HTCI != nsRes.HTCI {
		t.Errorf("NS replay CIs differ: %+v vs %+v", pe.NS.HHCI, nsRes.HHCI)
	}
	if pe.NE.HH != neRes.HH || pe.NE.HT != neRes.HT || pe.NE.RW != neRes.RW {
		t.Errorf("NE replay: HH/HT/RW = %g/%g/%g, standalone %g/%g/%g",
			pe.NE.HH, pe.NE.HT, pe.NE.RW, neRes.HH, neRes.HT, neRes.RW)
	}
	if pe.NE.HHCI != neRes.HHCI || pe.NE.RWCI != neRes.RWCI {
		t.Errorf("NE replay CIs differ: %+v vs %+v", pe.NE.HHCI, neRes.HHCI)
	}
	if pe.NE.Explorations != neRes.Explorations {
		t.Errorf("NE replay explorations %d != %d", pe.NE.Explorations, neRes.Explorations)
	}
}

// TestEstimateManyPairsBudgetDrivenMatchesNE: in budget-driven mode the
// recording charges exactly like NeighborExploration (ExploreFree), so the
// replayed NE estimates and the API bill match a standalone run exactly.
func TestEstimateManyPairsBudgetDrivenMatchesNE(t *testing.T) {
	g := genderGraph(t, 13)
	pair := graph.LabelPair{T1: 1, T2: 2}
	const k, burn = 400, 100
	mkOpts := func() Options {
		return Options{BurnIn: burn, Rng: rand.New(rand.NewSource(9)), Start: -1, BudgetDriven: true}
	}

	neRes, err := NeighborExploration(newSession(t, g), pair, k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	prs, traj := replayPair(t, g, k, mkOpts(), pair)
	pe := prs[0]

	if pe.NE.HH != neRes.HH || pe.NE.HT != neRes.HT || pe.NE.RW != neRes.RW {
		t.Errorf("NE replay: HH/HT/RW = %g/%g/%g, standalone %g/%g/%g",
			pe.NE.HH, pe.NE.HT, pe.NE.RW, neRes.HH, neRes.HT, neRes.RW)
	}
	if traj.APICalls != neRes.APICalls {
		t.Errorf("trajectory cost %d calls, standalone NE cost %d", traj.APICalls, neRes.APICalls)
	}
	if traj.APICalls > int64(k)+1 {
		t.Errorf("trajectory cost %d exceeds budget %d", traj.APICalls, k)
	}
}

// TestEstimateManyPairsSharesOneWalk is the amortization claim: 32 pairs
// cost the same API calls as one, because the replay never touches the API.
func TestEstimateManyPairsSharesOneWalk(t *testing.T) {
	g := rareLabelGraph(t, 14)
	var pairs []graph.LabelPair
	for a := 1; a <= 4; a++ {
		for b := a; b <= 4; b++ {
			pairs = append(pairs, graph.LabelPair{T1: graph.Label(a), T2: graph.Label(b)})
		}
	}
	for len(pairs) < 32 { // repeat queries are legitimate (two clients, same pair)
		pairs = append(pairs, pairs[len(pairs)%10])
	}
	opts := Options{BurnIn: 100, Rng: rand.New(rand.NewSource(3)), Start: -1, BudgetDriven: true}
	s := newSession(t, g)
	traj, err := RecordTrajectory(s, 500, opts)
	if err != nil {
		t.Fatal(err)
	}
	prs, err := EstimateManyPairs(traj, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(prs) != 32 {
		t.Fatalf("got %d results", len(prs))
	}
	if got := s.Calls(); got != traj.APICalls {
		t.Errorf("replaying 32 pairs changed the session bill: %d != %d", got, traj.APICalls)
	}
	for _, pe := range prs {
		if pe.NS.APICalls != traj.APICalls || pe.NE.APICalls != traj.APICalls {
			t.Errorf("pair %v reports APICalls %d/%d, want the shared %d",
				pe.Pair, pe.NS.APICalls, pe.NE.APICalls, traj.APICalls)
		}
	}
}

func TestRecordTrajectoryValidation(t *testing.T) {
	g := genderGraph(t, 15)
	s := newSession(t, g)
	rng := rand.New(rand.NewSource(1))
	if _, err := RecordTrajectory(s, 0, DefaultOptions(10, rng)); err == nil {
		t.Error("want error for k = 0")
	}
	if _, err := RecordTrajectory(s, 10, Options{BurnIn: 10, Start: -1}); err == nil {
		t.Error("want error for nil Rng")
	}
	if _, err := EstimateManyPairs(nil, []graph.LabelPair{{T1: 1, T2: 2}}); err == nil {
		t.Error("want error for nil trajectory")
	}
	traj, err := RecordTrajectory(s, 10, DefaultOptions(10, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateManyPairs(traj, nil); err == nil {
		t.Error("want error for no pairs")
	}
}

// TestRecorderResumesOneWalk: the incremental recorder pays burn-in once and
// each Extend continues the same walk; the concatenated stream equals a
// single one-shot recording of the same length.
func TestRecorderResumesOneWalk(t *testing.T) {
	g := genderGraph(t, 16)
	mkOpts := func() Options {
		return Options{BurnIn: 80, Rng: rand.New(rand.NewSource(21)), Start: -1}
	}

	oneShot, err := RecordTrajectory(newSession(t, g), 300, mkOpts())
	if err != nil {
		t.Fatal(err)
	}

	rec, err := NewRecorder(newSession(t, g), 0, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{64, 64, 128, 44} {
		added, exhausted, err := rec.Extend(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if exhausted || added != chunk {
			t.Fatalf("Extend(%d) added %d (exhausted=%v) with an unlimited budget", chunk, added, exhausted)
		}
	}
	inc := rec.Trajectory()
	if inc.Samples() != 300 || oneShot.Samples() != 300 {
		t.Fatalf("samples: incremental %d, one-shot %d", inc.Samples(), oneShot.Samples())
	}
	for i := 0; i < inc.Samples(); i++ {
		a := [3]int{int(inc.StepPrev(i)), int(inc.StepNode(i)), inc.StepDegree(i)}
		b := [3]int{int(oneShot.StepPrev(i)), int(oneShot.StepNode(i)), oneShot.StepDegree(i)}
		if a != b {
			t.Fatalf("step %d differs: (prev, node, degree) %v vs %v", i, a, b)
		}
	}
	pair := graph.LabelPair{T1: 1, T2: 2}
	a, err := EstimateManyPairs(inc, []graph.LabelPair{pair})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateManyPairs(oneShot, []graph.LabelPair{pair})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].NE.HH != b[0].NE.HH || a[0].NS.HH != b[0].NS.HH {
		t.Errorf("incremental and one-shot estimates differ: %g/%g vs %g/%g",
			a[0].NE.HH, a[0].NS.HH, b[0].NE.HH, b[0].NS.HH)
	}
}

// TestRecorderBudgetHardCap: the recorder's armed budget is never exceeded —
// unit charges are refused at the cap, Extend reports exhaustion instead of
// erroring.
func TestRecorderBudgetHardCap(t *testing.T) {
	g := genderGraph(t, 17)
	const budget = 50
	rec, err := NewRecorder(newSession(t, g), budget, Options{
		BurnIn: 60, Rng: rand.New(rand.NewSource(4)), Start: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	added, exhausted, err := rec.Extend(10 * budget)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted {
		t.Fatalf("Extend added %d samples without exhausting a %d-call budget", added, budget)
	}
	if rec.Calls() > budget {
		t.Errorf("billed %d calls, budget %d — cap violated", rec.Calls(), budget)
	}
	if added == 0 || rec.Samples() != added {
		t.Errorf("added %d samples, recorder holds %d", added, rec.Samples())
	}
	// Further extends stay refused and billed at the cap.
	added2, exhausted2, err := rec.Extend(10)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted2 || rec.Calls() > budget {
		t.Errorf("post-cap Extend: added %d exhausted=%v calls=%d", added2, exhausted2, rec.Calls())
	}
}
