package serve

import (
	"context"
	"errors"
	"io/fs"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/store"
)

// testChurn builds a small ~frac edge delta against g.
func testChurn(t testing.TB, g *graph.Graph, frac float64, seed int64) graph.Delta {
	t.Helper()
	d, err := gen.Churn(g, frac, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("churn produced an empty delta")
	}
	return d
}

func TestEngineApplyDeltaVersionsAnswers(t *testing.T) {
	g := testGraph(t, 61)
	e := testEngine(t, g, Config{Budget: 600, Seed: 5})
	q := Query{Pairs: []graph.LabelPair{{T1: 0, T2: 1}}}

	first, err := e.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.GraphVersion != g.Version() {
		t.Errorf("answer reports graph version %d, graph is %d", first.GraphVersion, g.Version())
	}
	if first.StaleSteps != 0 {
		t.Errorf("one-piece recording reports %d stale steps", first.StaleSteps)
	}

	if _, err := e.ApplyDelta(graph.Delta{}); err == nil {
		t.Fatal("ApplyDelta accepted an empty delta")
	}
	version, err := e.ApplyDelta(testChurn(t, g, 0.01, 7))
	if err != nil {
		t.Fatal(err)
	}
	if version != g.Version()+1 {
		t.Errorf("delta produced version %d, want %d", version, g.Version()+1)
	}
	if e.Graph().Version() != version {
		t.Errorf("engine serves version %d after delta to %d", e.Graph().Version(), version)
	}

	second, err := e.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Error("estimate after a delta was served from the stale cache")
	}
	if second.GraphVersion != version {
		t.Errorf("post-delta answer reports version %d, want %d", second.GraphVersion, version)
	}
	if second.StaleSteps == 0 {
		t.Error("post-delta recording reports 0 stale steps — it should be a top-up re-recording the invalidated part")
	}

	st := e.Stats()
	if st.Deltas != 1 {
		t.Errorf("Stats.Deltas = %d, want 1", st.Deltas)
	}
	if st.TopUps != 1 {
		t.Errorf("Stats.TopUps = %d, want 1", st.TopUps)
	}
	if st.TopUpSavedCalls == 0 {
		t.Error("top-up redeemed nothing from the stale trajectory")
	}
	// The top-up's nominal bill is a full recording's, but the upstream
	// spend must be the two recordings' bills minus the redeemed calls.
	if want := first.APICalls + second.APICalls - st.TopUpSavedCalls; st.UpstreamCalls != want {
		t.Errorf("UpstreamCalls = %d, want %d", st.UpstreamCalls, want)
	}

	third, err := e.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Error("repeat query at the new version missed the cache")
	}
	if third.GraphVersion != version || third.StaleSteps != second.StaleSteps {
		t.Errorf("cached answer reports version %d / stale %d, want %d / %d",
			third.GraphVersion, third.StaleSteps, version, second.StaleSteps)
	}
}

// TestEngineTopUpFromPersistedOldVersion restarts the serving stack after a
// delta: the old version's .osnt file is the only memory of the walk, and the
// first query must top up from it rather than re-record from scratch, then
// retire it in favor of the new version's file.
func TestEngineTopUpFromPersistedOldVersion(t *testing.T) {
	g := testGraph(t, 62)
	dir, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e1 := testEngine(t, g, Config{Budget: 500, Seed: 9, Store: dir, Name: "g"})
	q := Query{Pairs: []graph.LabelPair{{T1: 0, T2: 1}}}
	if _, err := e1.Estimate(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	oldKey := store.Key{Budget: 500, Walkers: 1, Seed: 9, GraphVersion: g.Version()}
	if _, err := dir.Stat("g", oldKey); err != nil {
		t.Fatalf("recording was not persisted: %v", err)
	}

	ng, err := g.ApplyDelta(testChurn(t, g, 0.01, 11))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine (restart) over the mutated graph, same store.
	e2 := testEngine(t, ng, Config{Budget: 500, Seed: 9, Store: dir, Name: "g"})
	ans, err := e2.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.CacheHit {
		t.Error("post-delta query claims a cache hit — the old file must not serve as-is")
	}
	if ans.GraphVersion != ng.Version() {
		t.Errorf("answer reports version %d, want %d", ans.GraphVersion, ng.Version())
	}
	if ans.StaleSteps == 0 {
		t.Error("recording ignored the persisted old version — StaleSteps = 0 means no top-up happened")
	}
	if st := e2.Stats(); st.TopUps != 1 || st.TopUpSavedCalls == 0 {
		t.Errorf("TopUps = %d, TopUpSavedCalls = %d — want a redeeming top-up", st.TopUps, st.TopUpSavedCalls)
	}
	newKey := oldKey
	newKey.GraphVersion = ng.Version()
	if _, err := dir.Stat("g", newKey); err != nil {
		t.Errorf("topped-up trajectory was not persisted under the new graph version: %v", err)
	}
	if _, err := dir.Stat("g", oldKey); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("superseded old-version file survived its replacement (stat error %v)", err)
	}
}

// TestEngineDeltaPersistsSegments pins the durability chain: PATCH-applied
// deltas write .osnd segments beside the snapshot, reload to the mutated
// graph, and compact once the segment count passes the bound.
func TestEngineDeltaPersistsSegments(t *testing.T) {
	g := testGraph(t, 63)
	base := t.TempDir() + "/g.osnb"
	if err := snapshot.Save(base, g); err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, g, Config{Budget: 300, SnapshotPath: base, CompactSegments: 2})
	for i := 0; i < 2; i++ {
		if _, err := e.ApplyDelta(testChurn(t, e.Graph(), 0.005, int64(70+i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := snapshot.ListDeltas(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("2 deltas left %d segments, want 2", len(segs))
	}
	reloaded, err := snapshot.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Version() != e.Graph().Version() || reloaded.Fingerprint() != e.Graph().Fingerprint() {
		t.Error("reloading base+segments does not reproduce the served graph")
	}
	// The third delta crosses CompactSegments and must fold the log into a
	// fresh base.
	if _, err := e.ApplyDelta(testChurn(t, e.Graph(), 0.005, 73)); err != nil {
		t.Fatal(err)
	}
	segs, err = snapshot.ListDeltas(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Errorf("compaction left %d segments", len(segs))
	}
	reloaded, err = snapshot.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Version() != e.Graph().Version() || reloaded.Fingerprint() != e.Graph().Fingerprint() {
		t.Error("compacted base does not reproduce the served graph")
	}
}

// TestEngineConcurrentDeltasAndEstimates races graph mutation against the
// query path (run under -race): estimates must always reflect a consistent
// graph version even while deltas land.
func TestEngineConcurrentDeltasAndEstimates(t *testing.T) {
	g := testGraph(t, 64)
	e := testEngine(t, g, Config{Budget: 250, Seed: 3})
	const deltas = 6
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < deltas; i++ {
			if _, err := e.ApplyDelta(testChurn(t, e.Graph(), 0.002, int64(100+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		q := Query{Pairs: []graph.LabelPair{{T1: 0, T2: 1}}}
		for i := 0; i < 10; i++ {
			ans, err := e.Estimate(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			if ans.GraphVersion > g.Version()+deltas {
				t.Errorf("answer reports impossible graph version %d", ans.GraphVersion)
				return
			}
		}
	}()
	wg.Wait()
	if got := e.Graph().Version(); got != g.Version()+deltas {
		t.Errorf("final graph version %d, want %d", got, g.Version()+deltas)
	}
}

func TestWorkspaceApplyDelta(t *testing.T) {
	g := testGraph(t, 65)
	ws := testWorkspace(t, WorkspaceConfig{}, "main", g, GraphOptions{Budget: 300})
	if _, err := ws.ApplyDelta("nope", testChurn(t, g, 0.005, 1)); err == nil {
		t.Error("ApplyDelta on an unknown graph succeeded")
	}
	version, err := ws.ApplyDelta("main", testChurn(t, g, 0.005, 2))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := ws.Graph("main")
	if err != nil {
		t.Fatal(err)
	}
	if engine.Graph().Version() != version {
		t.Errorf("workspace graph at version %d after delta to %d", engine.Graph().Version(), version)
	}
}
