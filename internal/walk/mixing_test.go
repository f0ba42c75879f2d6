package walk

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/gen"
	"repro/internal/graph"
)

func completeGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for u := graph.Node(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMixingTimeCompleteGraphFast(t *testing.T) {
	g := completeGraph(t, 20)
	res, err := MixingTime(context.Background(), g, 1e-3, MixingOptions{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("complete graph did not mix")
	}
	if res.Steps > 5 {
		t.Errorf("K20 mixing time %d, want <= 5", res.Steps)
	}
}

func TestMixingTimePathSlowerThanComplete(t *testing.T) {
	k := completeGraph(t, 16)
	b := graph.NewBuilder(16)
	for i := 0; i < 15; i++ {
		if err := b.AddEdge(graph.Node(i), graph.Node(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Paths are bipartite, so the pure walk is periodic: add one chord to
	// break periodicity while keeping the path bottleneck.
	if err := b.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	path, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rk, err := MixingTime(context.Background(), k, 1e-2, MixingOptions{MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := MixingTime(context.Background(), path, 1e-2, MixingOptions{MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Converged {
		t.Fatal("chorded path did not mix")
	}
	if rp.Steps <= rk.Steps {
		t.Errorf("path mixing %d not slower than complete graph %d", rp.Steps, rk.Steps)
	}
}

func TestMixingTimeBipartiteDoesNotConverge(t *testing.T) {
	// A single edge is bipartite: the walk alternates forever.
	b := graph.NewBuilder(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := MixingTime(context.Background(), g, 1e-3, MixingOptions{MaxSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("bipartite graph reported as mixed")
	}
	if res.Steps != 50 {
		t.Errorf("Steps = %d, want MaxSteps = 50", res.Steps)
	}
}

// TestMixingTimeCancelled: a cancelled context stops the power iteration,
// and MixingTime and BurnIn return its error instead of a mixing time.
func TestMixingTimeCancelled(t *testing.T) {
	g, err := gen.Build(gen.Pokec, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MixingTime(ctx, g, 1e-3, MixingOptions{MaxSteps: 5000, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("MixingTime: want context.Canceled, got %v", err)
	}
	if _, err := BurnIn(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("BurnIn: want context.Canceled, got %v", err)
	}
}

// TestBurnInMemoized: MixingSteps measures a graph once per version,
// BurnIn floors the memoized step count at 10, and the memo keeps no graph
// alive.
func TestBurnInMemoized(t *testing.T) {
	ctx := context.Background()
	g := completeGraph(t, 20)
	want, err := MixingSteps(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	key := mixingKey{g: weak.Make(g), version: g.Version()}
	mixingMemo.Lock()
	got, ok := mixingMemo.m[key]
	// A memoized graph is answered from the memo, not measured again.
	mixingMemo.m[key] = want + 20
	mixingMemo.Unlock()
	if !ok || got != want {
		t.Fatalf("memo holds (%d, %v) after MixingSteps returned %d", got, ok, want)
	}
	if s, err := MixingSteps(ctx, g); err != nil || s != want+20 {
		t.Fatalf("second MixingSteps = (%d, %v), want the memoized %d", s, err, want+20)
	}
	if b, err := BurnIn(ctx, g); err != nil || b != want+20 {
		t.Fatalf("BurnIn = (%d, %v), want the memoized %d", b, err, want+20)
	}
	mixingMemo.Lock()
	mixingMemo.m[key] = 3
	mixingMemo.Unlock()
	if b, err := BurnIn(ctx, g); err != nil || b != 10 {
		t.Fatalf("BurnIn over a memoized 3 steps = (%d, %v), want the floor 10", b, err)
	}
	g.SetVersion(g.Version() + 1)
	if s, err := MixingSteps(ctx, g); err != nil || s != want {
		t.Fatalf("MixingSteps at a new version = (%d, %v), want a fresh measurement %d", s, err, want)
	}

	keys := []mixingKey{key, {g: weak.Make(g), version: g.Version()}}
	g = nil
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		mixingMemo.Lock()
		left := 0
		for _, k := range keys {
			if _, ok := mixingMemo.m[k]; ok {
				left++
			}
		}
		mixingMemo.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d memo entries remain after their graph was collected", left)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMixingTimeValidation(t *testing.T) {
	g := completeGraph(t, 4)
	if _, err := MixingTime(context.Background(), g, 0, MixingOptions{}); err == nil {
		t.Error("want error for eps=0")
	}
	if _, err := MixingTime(context.Background(), g, 1, MixingOptions{}); err == nil {
		t.Error("want error for eps=1")
	}
	if _, err := MixingTime(context.Background(), &graph.Graph{}, 0.1, MixingOptions{}); err == nil {
		t.Error("want error for empty graph")
	}
	if _, err := MixingTime(context.Background(), g, 0.1, MixingOptions{StartNodes: []graph.Node{99}}); err == nil {
		t.Error("want error for out-of-range start")
	}
}

func TestMixingTimeSampledStartsLowerBoundsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := gen.BarabasiAlbert(150, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	exactRes, err := MixingTime(context.Background(), g, 1e-2, MixingOptions{MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := MixingTime(context.Background(), g, 1e-2, MixingOptions{
		MaxSteps:   2000,
		StartNodes: DefaultMixingStarts(g, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !exactRes.Converged || !sampled.Converged {
		t.Fatal("walks did not mix")
	}
	if sampled.Steps > exactRes.Steps {
		t.Errorf("sampled-start mixing %d exceeds exact maximum %d", sampled.Steps, exactRes.Steps)
	}
	// The low-degree-start heuristic should land close to the true maximum.
	if sampled.Steps*2 < exactRes.Steps {
		t.Errorf("sampled starts too optimistic: %d vs exact %d", sampled.Steps, exactRes.Steps)
	}
}

func TestDefaultMixingStarts(t *testing.T) {
	g := completeGraph(t, 10)
	starts := DefaultMixingStarts(g, 4)
	if len(starts) < 2 {
		t.Fatalf("got %d starts, want >= 2", len(starts))
	}
	for _, s := range starts {
		if s < 0 || int(s) >= 10 {
			t.Errorf("start %d out of range", s)
		}
	}
	if DefaultMixingStarts(&graph.Graph{}, 3) != nil {
		t.Error("empty graph should yield no starts")
	}
}

func TestStationaryDistributionIsFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g, err := gen.ErdosRenyi(60, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := graph.LargestComponent(g)
	n := lcc.NumNodes()
	pi := make([]float64, n)
	twoE := 2 * float64(lcc.NumEdges())
	for u := 0; u < n; u++ {
		pi[u] = float64(lcc.Degree(graph.Node(u))) / twoE
	}
	next := make([]float64, n)
	stepDistribution(lcc, pi, next)
	if tv := totalVariation(pi, next); tv > 1e-12 {
		t.Errorf("stationary distribution moved by TV %g under one step", tv)
	}
}

func TestMixingTimeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, err := gen.BarabasiAlbert(200, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	starts := DefaultMixingStarts(g, 6)
	seq, err := MixingTime(context.Background(), g, 1e-2, MixingOptions{MaxSteps: 2000, StartNodes: starts})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MixingTime(context.Background(), g, 1e-2, MixingOptions{MaxSteps: 2000, StartNodes: starts, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Steps != par.Steps || seq.Converged != par.Converged {
		t.Errorf("parallel result differs: seq=%+v par=%+v", seq, par)
	}
}
