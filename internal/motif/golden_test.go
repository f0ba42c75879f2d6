package motif

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenGraph is the fixed stand-in the pre-refactor goldens were recorded
// on: gen.Build(facebook, 0.15, 5) → |V|=592, |E|=1684.
func goldenGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Build(gen.StandIn("facebook"), 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMotifGoldenSerial pins every single-walker motif estimator to the
// values the pre-refactor private walk loops produced (recorded before the
// port onto RecordTrajectory plus the "motif" task replay). Estimates,
// sample counts AND API bills are bit-identical: the trajectory recording
// visits the same nodes and charges the same fetches.
func TestMotifGoldenSerial(t *testing.T) {
	g := goldenGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	opts := func(seed int64) core.Options {
		return core.Options{BurnIn: 150, Rng: rand.New(rand.NewSource(seed)), Start: -1}
	}

	cases := []struct {
		name     string
		run      func() (oneRow, error)
		estimate float64
		calls    int64
	}{
		{"LabeledWedges", func() (oneRow, error) { return countMotif(newSession(t, g), ShapeWedges, 500, opts(9), pair) }, 4148.502579617178, 219},
		{"LabeledTriangles", func() (oneRow, error) { return countMotif(newSession(t, g), ShapeTriangles, 500, opts(10), pair) }, 269.44, 215},
		{"Wedges", func() (oneRow, error) { return countMotif(newSession(t, g), ShapeWedges, 500, opts(13)) }, 24239.496, 215},
		{"Triangles", func() (oneRow, error) { return countMotif(newSession(t, g), ShapeTriangles, 500, opts(14)) }, 630.9386666666661, 210},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bitEq(res.Estimate, tc.estimate) {
			t.Errorf("%s: estimate %v drifted from pre-refactor golden %v", tc.name, res.Estimate, tc.estimate)
		}
		if res.Samples != 500 || res.APICalls != tc.calls {
			t.Errorf("%s: samples=%d calls=%d, want 500/%d", tc.name, res.Samples, res.APICalls, tc.calls)
		}
		if res.Walkers != 1 || res.CI.Valid() {
			t.Errorf("%s: serial run should report Walkers=1 and no CI", tc.name)
		}
	}

}

// TestMotifFleetDeterministicWithCI: multi-walker motif estimates are
// reproducible for a fixed seed, keep the full sample count, and carry
// between-walker intervals — inherited from the shared fleet recording.
func TestMotifFleetDeterministicWithCI(t *testing.T) {
	g := goldenGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	run := func() oneRow {
		res, err := countMotif(newSession(t, g), ShapeWedges, 600, core.Options{
			BurnIn: 150, Rng: rand.New(rand.NewSource(4)), Start: -1, Walkers: 4, Seed: 17,
		}, pair)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bitEq(a.Estimate, b.Estimate) || a.APICalls != b.APICalls {
		t.Errorf("fleet wedge estimate not deterministic: %+v vs %+v", a, b)
	}
	if a.Walkers != 4 || a.Samples != 600 {
		t.Errorf("Walkers/Samples = %d/%d, want 4/600", a.Walkers, a.Samples)
	}
	if !a.CI.Valid() {
		t.Errorf("fleet run should carry a CI, got %+v", a.CI)
	}
	truth := float64(exact.CountLabeledWedges(g, pair))
	if a.Estimate < truth/3 || a.Estimate > truth*3 {
		t.Errorf("pooled estimate %.0f outside 3x of truth %.0f", a.Estimate, truth)
	}
}

// TestMotifCancellation: a pre-canceled context aborts the recording — the
// motif estimators were uncancellable mid-walk before the port.
func TestMotifCancellation(t *testing.T) {
	g := goldenGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pair := graph.LabelPair{T1: 1, T2: 2}
	for _, walkers := range []int{0, 4} {
		_, err := countMotif(newSession(t, g), ShapeTriangles, 400, core.Options{
			BurnIn: 100, Rng: rand.New(rand.NewSource(1)), Start: -1,
			Walkers: walkers, Seed: 2, Ctx: ctx,
		}, pair)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("walkers=%d: want context.Canceled, got %v", walkers, err)
		}
	}
}

// TestUnlabeledAccuracy validates the unlabeled replays against the exact
// counters over repeated runs.
func TestUnlabeledAccuracy(t *testing.T) {
	g := denseLabeledGraph(t, 6)
	truthW := float64(exact.CountWedges(g))
	truthT := float64(exact.CountTriangles(g))
	const reps = 40
	var ws, ts []float64
	for i := 0; i < reps; i++ {
		opts := core.Options{BurnIn: 200, Rng: rand.New(rand.NewSource(int64(i))), Start: -1}
		w, err := countMotif(newSession(t, g), ShapeWedges, 400, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts = core.Options{BurnIn: 200, Rng: rand.New(rand.NewSource(int64(1000 + i))), Start: -1}
		tr, err := countMotif(newSession(t, g), ShapeTriangles, 400, opts)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w.Estimate)
		ts = append(ts, tr.Estimate)
	}
	meanW, meanT := mean(ws), mean(ts)
	if rel := (meanW - truthW) / truthW; math.Abs(rel) > 0.10 {
		t.Errorf("unlabeled wedge bias %.3f (truth %.0f, mean %.0f)", rel, truthW, meanW)
	}
	if rel := (meanT - truthT) / truthT; math.Abs(rel) > 0.10 {
		t.Errorf("unlabeled triangle bias %.3f (truth %.0f, mean %.0f)", rel, truthT, meanT)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestMotifTaskRegistryDispatch: the registry-dispatched "motif" task
// returns one row per pair — plus the unlabeled row when no pairs are given
// — and describes the shared recording it replayed.
func TestMotifTaskRegistryDispatch(t *testing.T) {
	g := goldenGraph(t)
	pair := graph.LabelPair{T1: 1, T2: 2}
	traj, err := core.RecordTrajectory(newSession(t, g), 500, core.Options{
		BurnIn: 150, Rng: rand.New(rand.NewSource(23)), Start: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	out, err := core.RunTask(traj, "motif", core.TaskParams{Motif: ShapeTriangles, Pairs: []graph.LabelPair{pair}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.(TaskResult)
	if res.Shape != ShapeTriangles || len(res.Rows) != 1 || res.Rows[0].Pair == nil || *res.Rows[0].Pair != pair {
		t.Fatalf("unexpected task result %+v", res)
	}
	if res.Samples != traj.Samples() || res.APICalls != traj.APICalls || res.Walkers != traj.Walkers {
		t.Errorf("task result %+v does not describe the recording (%d samples, %d calls, %d walkers)",
			res, traj.Samples(), traj.APICalls, traj.Walkers)
	}

	out, err = core.RunTask(traj, "motif", core.TaskParams{Motif: ShapeWedges})
	if err != nil {
		t.Fatal(err)
	}
	res = out.(TaskResult)
	if len(res.Rows) != 1 || res.Rows[0].Pair != nil {
		t.Fatalf("unlabeled dispatch should yield one pair-less row, got %+v", res)
	}

	if _, err := core.RunTask(traj, "motif", core.TaskParams{Motif: "squares"}); err == nil {
		t.Error("want error for unknown motif shape")
	}
}
