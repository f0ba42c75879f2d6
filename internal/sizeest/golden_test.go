package sizeest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
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

// TestEstimateGoldenSerial pins the single-walker size estimate to the
// values the pre-refactor private walk loop produced (recorded before the
// port onto RecordTrajectory plus the "size" task replay). Every field,
// including the
// API bill, must be bit-identical: the trajectory recording charges exactly
// like the historical loop (one step fetch prepaid at the start, one
// arrived-node fetch per iteration).
func TestEstimateGoldenSerial(t *testing.T) {
	g := goldenGraph(t)
	res, err := estimateSize(newSession(t, g), 600, core.Options{
		BurnIn: 200, Rng: rand.New(rand.NewSource(7)), Start: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEq(res.Nodes, 527.4840754198112) || !bitEq(res.Edges, 1645.3488372093025) {
		t.Errorf("estimates drifted from pre-refactor golden: |V|=%v |E|=%v", res.Nodes, res.Edges)
	}
	if res.Collisions != 903 || res.Samples != 600 || res.APICalls != 250 {
		t.Errorf("diagnostics drifted: collisions=%d samples=%d calls=%d, want 903/600/250",
			res.Collisions, res.Samples, res.APICalls)
	}
	if res.Walkers != 1 || res.NodesCI.Valid() {
		t.Errorf("serial run should report Walkers=1 and no CI, got %d, %+v", res.Walkers, res.NodesCI)
	}
}

// TestEstimateFleetDeterministicWithCI: a multi-walker size estimate is
// reproducible for a fixed seed and carries between-walker intervals — the
// capability the port onto the fleet recording machinery buys.
func TestEstimateFleetDeterministicWithCI(t *testing.T) {
	g := goldenGraph(t)
	run := func() Result {
		res, err := estimateSize(newSession(t, g), 800, core.Options{
			BurnIn: 150, Rng: rand.New(rand.NewSource(3)), Start: -1, Walkers: 4, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bitEq(a.Nodes, b.Nodes) || !bitEq(a.Edges, b.Edges) || a.Collisions != b.Collisions || a.APICalls != b.APICalls {
		t.Errorf("fleet size estimate not deterministic: %+v vs %+v", a, b)
	}
	if a.Walkers != 4 {
		t.Errorf("Walkers = %d, want 4", a.Walkers)
	}
	if a.Samples != 800 {
		t.Errorf("Samples = %d, want 800 (quota split must not lose samples)", a.Samples)
	}
	if !a.NodesCI.Valid() || !a.EdgesCI.Valid() {
		t.Errorf("fleet run should carry CIs: %+v %+v", a.NodesCI, a.EdgesCI)
	}
	truth := float64(g.NumNodes())
	if a.Nodes < truth/3 || a.Nodes > truth*3 {
		t.Errorf("pooled |V| estimate %.0f outside 3x of truth %.0f", a.Nodes, truth)
	}
}

// TestEstimateCancellation: a pre-canceled context aborts both the serial
// and the fleet walk — size estimation was uncancellable before the port.
func TestEstimateCancellation(t *testing.T) {
	g := goldenGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, walkers := range []int{0, 4} {
		_, err := estimateSize(newSession(t, g), 400, core.Options{
			BurnIn: 100, Rng: rand.New(rand.NewSource(1)), Start: -1,
			Walkers: walkers, Seed: 2, Ctx: ctx,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("walkers=%d: want context.Canceled, got %v", walkers, err)
		}
	}
}

// TestSizeTaskRegistryDispatch: the registry-dispatched "size" task returns
// a Result that describes the recording it replayed.
func TestSizeTaskRegistryDispatch(t *testing.T) {
	g := goldenGraph(t)
	traj, err := core.RecordTrajectory(newSession(t, g), 500, core.Options{
		BurnIn: 150, Rng: rand.New(rand.NewSource(21)), Start: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.RunTask(traj, "size", core.TaskParams{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(Result)
	if !ok {
		t.Fatalf("size task returned %T", out)
	}
	if got.Samples != traj.Samples() || got.APICalls != traj.APICalls || got.Walkers != traj.Walkers {
		t.Errorf("result %+v does not describe the recording (%d samples, %d calls, %d walkers)",
			got, traj.Samples(), traj.APICalls, traj.Walkers)
	}
	if got.Collisions <= 0 || got.Nodes <= 0 || got.Edges <= 0 {
		t.Errorf("500 samples on |V|=%d should collide: %+v", g.NumNodes(), got)
	}
	if _, err := core.RunTask(traj, "size", core.TaskParams{ThinGap: -1}); err == nil {
		t.Error("want error for a negative collision gap")
	}
}
