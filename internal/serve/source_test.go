package serve

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
)

// TestEngineRecordsThroughHTTPSource is the serve-layer half of the live-API
// tentpole: an engine whose SourceFactory returns an httpsrc client records
// its trajectories over HTTP (faultsim-ledger asserted), answers match the
// in-memory source bit for bit at the same configuration, and the client's
// .osnc cache primes the next engine so a restarted replica re-records
// without re-paying the upstream.
func TestEngineRecordsThroughHTTPSource(t *testing.T) {
	g := testGraph(t, 3)
	up := faultsim.New(g)
	defer up.Close()
	cachePath := t.TempDir() + "/serve.osnc"
	c, err := httpsrc.New(httpsrc.Config{BaseURL: up.URL(), CachePath: cachePath})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := Query{Kind: "size", Budget: 300, Seed: 5}
	e := testEngine(t, g, Config{
		SourceFactory: func(*graph.Graph) osn.Source { return c },
	})
	ans, err := e.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if l := up.Ledger(); l.Neighbors == 0 {
		t.Error("recording over an HTTP source cost zero upstream neighbor fetches")
	}

	// Same configuration against the in-memory source: identical answer —
	// the transport must not leak into the estimate.
	mem := testEngine(t, g, Config{})
	want, err := mem.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Result, want.Result) {
		t.Errorf("HTTP-sourced answer differs from in-memory source:\nhttp: %#v\nmem:  %#v", ans.Result, want.Result)
	}

	// "Restart": a fresh client over the same cache serves a fresh engine.
	// The recording is re-paid into the session as prepaid responses, so the
	// upstream sees zero re-fetches for everything already on disk.
	c.Close()
	c2, err := httpsrc.New(httpsrc.Config{BaseURL: up.URL(), CachePath: cachePath})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	paid := c2.Cache().NeighborResponses()
	if len(paid) == 0 {
		t.Fatal("first recording persisted nothing to the .osnc cache")
	}
	up.ResetLedger()
	e2 := testEngine(t, g, Config{
		SourceFactory: func(*graph.Graph) osn.Source { return c2 },
	})
	ans2, err := e2.Estimate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans2.Result, want.Result) {
		t.Error("post-restart answer differs")
	}
	for u, n := range up.Ledger().PerNode {
		if n > 0 {
			if _, ok := paid[u]; ok {
				t.Errorf("node %d was cached on disk but re-fetched %d times after restart", u, n)
			}
		}
	}
}

// trackedSource is an upstream a test can watch being collected.
type trackedSource struct{ osn.GraphSource }

// TestSourceRecordingsReleaseTheirSource: a cached SourceFactory recording
// keeps the labels its .osnt would embed, not its recording session, so the
// source each recording was handed (in production an httpsrc client and its
// response cache) is collectable once the recording is done, and the
// recordings still answer every label-reading kind exactly as recordings
// of the in-memory graph do.
func TestSourceRecordingsReleaseTheirSource(t *testing.T) {
	g := testGraph(t, 3)
	var mu sync.Mutex
	var sources []weak.Pointer[trackedSource]
	e := testEngine(t, g, Config{SourceFactory: func(g *graph.Graph) osn.Source {
		src := &trackedSource{osn.NewGraphSource(g)}
		mu.Lock()
		sources = append(sources, weak.Make(src))
		mu.Unlock()
		return src
	}})
	mem := testEngine(t, g, Config{})
	const n = 6
	for seed := int64(1); seed <= n; seed++ {
		batch := []Query{
			{Kind: "pairs", Pairs: []graph.LabelPair{{T1: 0, T2: 1}, {T1: 1, T2: 1}}, Budget: 200, Seed: seed},
			{Kind: "census", Budget: 200, Seed: seed},
			{Kind: "motif", Motif: "triangles", Pairs: []graph.LabelPair{{T1: 0, T2: 1}}, Budget: 200, Seed: seed},
			{Kind: "assortativity", Variant: "label", Budget: 200, Seed: seed},
		}
		got, err := e.EstimateBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mem.EstimateBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if got[i].Err != nil || !reflect.DeepEqual(got[i].Pairs, want[i].Pairs) || !reflect.DeepEqual(got[i].Result, want[i].Result) {
				t.Errorf("seed %d, %s: sourced answer %#v (err %v) differs from in-memory %#v",
					seed, batch[i].Kind, got[i].Result, got[i].Err, want[i].Result)
			}
		}
	}
	if c := e.CachedTrajectories(); c != n {
		t.Fatalf("engine caches %d trajectories, want all %d", c, n)
	}
	runtime.GC()
	mu.Lock()
	defer mu.Unlock()
	if len(sources) != n {
		t.Fatalf("%d recordings asked for a source, want %d", len(sources), n)
	}
	for i, wp := range sources {
		if wp.Value() != nil {
			t.Errorf("recording %d's source is still reachable from the engine cache", i)
		}
	}
	runtime.KeepAlive(e) // the cache must outlive the check
}

// TestWorkspaceSourceReady: /healthz readiness follows the configured
// upstream source probe.
func TestWorkspaceSourceReady(t *testing.T) {
	g := testGraph(t, 4)
	ready := true
	ws := testWorkspace(t, WorkspaceConfig{SourceReady: func() bool { return ready }}, "g", g, GraphOptions{Budget: 200})
	if !ws.Ready() {
		t.Fatal("workspace with a healthy source reports unready")
	}
	ready = false
	if ws.Ready() {
		t.Fatal("workspace with an unreachable source reports ready")
	}
}
