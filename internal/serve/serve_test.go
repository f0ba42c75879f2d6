package serve

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/store"
)

// testGraph builds a small labeled graph shared by the serve tests.
func testGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, err := gen.BarabasiAlbert(1200, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Apply(g0, &gen.GenderLabeler{PFemale: 0.3, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

func testEngine(t testing.TB, g *graph.Graph, cfg Config) *Engine {
	t.Helper()
	cfg.Graph = g
	if cfg.BurnIn == 0 {
		cfg.BurnIn = 100
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testWorkspace builds a workspace serving g under name with the given
// per-graph options (burn-in defaulted to 100 like testEngine).
func testWorkspace(t testing.TB, wcfg WorkspaceConfig, name string, g *graph.Graph, opts GraphOptions) *Workspace {
	t.Helper()
	ws, err := NewWorkspace(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if opts.BurnIn == 0 {
		opts.BurnIn = 100
	}
	if _, err := ws.AddGraph(name, g, &opts); err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error for nil graph")
	}
	g := testGraph(t, 1)
	if _, err := New(Config{Graph: g, Budget: -1}); err == nil {
		t.Error("want error for negative budget")
	}
	e := testEngine(t, g, Config{})
	if _, err := e.Estimate(context.Background(), Query{}); err == nil {
		t.Error("want error for empty pair list")
	}
	if _, err := e.Estimate(context.Background(), Query{Pairs: []graph.LabelPair{{T1: 1, T2: 2}}, Budget: -3}); err == nil {
		t.Error("want error for negative query budget")
	}
}

// TestEngineAnswersAndCaches: the first query records, the second is a free
// cache hit, and both see the same estimates for the same configuration.
func TestEngineAnswersAndCaches(t *testing.T) {
	g := testGraph(t, 2)
	e := testEngine(t, g, Config{Budget: 400})
	pair := graph.LabelPair{T1: 1, T2: 2}

	a1, err := e.Estimate(context.Background(), Query{Pairs: []graph.LabelPair{pair}})
	if err != nil {
		t.Fatal(err)
	}
	if a1.CacheHit || a1.Charged == 0 || a1.SharedBy != 1 {
		t.Errorf("first query should pay for its recording: %+v", a1)
	}
	if a1.APICalls == 0 || a1.APICalls > 401 {
		t.Errorf("trajectory cost %d outside budget 400", a1.APICalls)
	}
	truth := float64(exact.CountTargetEdges(g, pair))
	est := a1.Pairs[0].Estimates["NeighborExploration-HH"]
	if est <= 0 || est > 4*truth || est < truth/4 {
		t.Errorf("NE-HH estimate %.0f wildly off truth %.0f", est, truth)
	}
	for _, m := range Methods() {
		if _, ok := a1.Pairs[0].Estimates[m]; !ok {
			t.Errorf("method %s missing from answer", m)
		}
	}

	a2, err := e.Estimate(context.Background(), Query{Pairs: []graph.LabelPair{pair}})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.CacheHit || a2.Charged != 0 {
		t.Errorf("second query should be a free cache hit: %+v", a2)
	}
	if a2.Pairs[0].Estimates["NeighborSample-HH"] != a1.Pairs[0].Estimates["NeighborSample-HH"] {
		t.Error("cache hit returned different estimates for the same trajectory")
	}

	st := e.Stats()
	if st.Queries != 2 || st.Recordings != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.UpstreamCalls != a1.APICalls {
		t.Errorf("upstream calls %d != trajectory cost %d", st.UpstreamCalls, a1.APICalls)
	}
}

// TestEngineSeedsIsolateTrajectories: different seeds record different
// walks; same seed shares.
func TestEngineSeedsIsolateTrajectories(t *testing.T) {
	g := testGraph(t, 3)
	e := testEngine(t, g, Config{Budget: 300})
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	a1, err := e.Estimate(context.Background(), Query{Pairs: pair, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Estimate(context.Background(), Query{Pairs: pair, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a2.CacheHit {
		t.Error("different seed must not share a trajectory")
	}
	if a1.Pairs[0].Estimates["NeighborSample-HH"] == a2.Pairs[0].Estimates["NeighborSample-HH"] &&
		a1.Pairs[0].Estimates["NeighborExploration-HH"] == a2.Pairs[0].Estimates["NeighborExploration-HH"] {
		t.Error("independent walks produced identical estimates — suspicious")
	}
	if st := e.Stats(); st.Recordings != 2 {
		t.Errorf("recordings = %d, want 2", st.Recordings)
	}
}

// TestEngineBudgetRejection: a query that cannot pay for the walk it would
// trigger is refused before any API spend; a cached walk still serves it.
func TestEngineBudgetRejection(t *testing.T) {
	g := testGraph(t, 4)
	e := testEngine(t, g, Config{Budget: 500})
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	_, err := e.Estimate(context.Background(), Query{Pairs: pair, MaxCost: 100})
	if !errors.Is(err, ErrQueryBudget) {
		t.Fatalf("want ErrQueryBudget, got %v", err)
	}
	if st := e.Stats(); st.Recordings != 0 || st.UpstreamCalls != 0 {
		t.Errorf("rejected query spent API calls: %+v", st)
	}

	if _, err := e.Estimate(context.Background(), Query{Pairs: pair}); err != nil {
		t.Fatal(err)
	}
	a, err := e.Estimate(context.Background(), Query{Pairs: pair, MaxCost: 100})
	if err != nil {
		t.Fatalf("cache hit should serve a tiny budget: %v", err)
	}
	if !a.CacheHit || a.Charged != 0 {
		t.Errorf("expected free cache hit: %+v", a)
	}
}

// upstream is a SourceFactory over the in-memory graph: recordings through
// it count as upstream recordings, so Config.TTL applies to them.
func upstream(g *graph.Graph) osn.Source { return osn.NewGraphSource(g) }

// testClock is a settable TTL clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time { c.mu.Lock(); defer c.mu.Unlock(); return c.now }

func (c *testClock) Set(t time.Time) { c.mu.Lock(); defer c.mu.Unlock(); c.now = t }

// TestEngineTTLAndInvalidate: trajectories recorded through an upstream
// source expire after the TTL and are re-recorded; another seed is another
// trajectory.
func TestEngineTTLAndInvalidate(t *testing.T) {
	g := testGraph(t, 5)
	clock := &testClock{now: time.Unix(1000, 0)}
	e := testEngine(t, g, Config{Budget: 200, TTL: time.Minute, now: clock.Now, SourceFactory: upstream})
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	if _, err := e.Estimate(context.Background(), Query{Pairs: pair}); err != nil {
		t.Fatal(err)
	}
	a, err := e.Estimate(context.Background(), Query{Pairs: pair})
	if err != nil || !a.CacheHit {
		t.Fatalf("within TTL: want cache hit, got %+v err %v", a, err)
	}
	clock.Set(clock.Now().Add(2 * time.Minute))
	a, err = e.Estimate(context.Background(), Query{Pairs: pair})
	if err != nil || a.CacheHit {
		t.Fatalf("past TTL: want re-recording, got %+v err %v", a, err)
	}
	a, err = e.Estimate(context.Background(), Query{Pairs: pair})
	if err != nil || !a.CacheHit {
		t.Fatalf("the re-recording restarts the TTL: want cache hit, got %+v err %v", a, err)
	}

	a, err = e.Estimate(context.Background(), Query{Pairs: pair, Seed: 2})
	if err != nil || a.CacheHit {
		t.Fatalf("another seed: want a recording, got %+v err %v", a, err)
	}
	if st := e.Stats(); st.Recordings != 3 {
		t.Errorf("recordings = %d, want 3", st.Recordings)
	}
}

// TestEngineTTLIgnoredInMemory: an engine recording the in-memory graph
// never expires its trajectories — graph version plus fingerprint identify
// them, so a re-walk would buy identical bytes.
func TestEngineTTLIgnoredInMemory(t *testing.T) {
	g := testGraph(t, 11)
	clock := &testClock{now: time.Now()}
	st := testStore(t)
	opts := GraphOptions{Budget: 200, TTL: time.Minute}
	ws := testWorkspace(t, WorkspaceConfig{Store: st, now: clock.Now}, "g", g, opts)
	pair := []graph.LabelPair{{T1: 1, T2: 2}}
	if _, err := ws.Estimate(context.Background(), "g", Query{Pairs: pair}); err != nil {
		t.Fatal(err)
	}
	clock.Set(clock.Now().Add(time.Hour))
	a, err := ws.Estimate(context.Background(), "g", Query{Pairs: pair})
	if err != nil || !a.CacheHit {
		t.Fatalf("an hour past TTL: want cache hit, got %+v err %v", a, err)
	}
	e, _ := ws.Graph("g")
	if got := e.Stats().Recordings; got != 1 {
		t.Errorf("recordings = %d, want 1", got)
	}
	// A restart an hour later still warm-starts the file.
	ws2, err := NewWorkspace(WorkspaceConfig{Store: st, now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	opts.BurnIn = 100
	if warmed, err := ws2.AddGraph("g", g, &opts); err != nil || warmed != 1 {
		t.Errorf("warm start an hour later loaded %d trajectories (err %v), want 1", warmed, err)
	}
}

// TestWorkspaceTTLReRecordsStoredTrajectory: with a store, the age of an
// upstream recording counts from the recording, not from its last reload —
// a trajectory past its TTL is re-recorded instead of reloaded from its own
// .osnt, and a restarted workspace does not warm-start an expired file.
func TestWorkspaceTTLReRecordsStoredTrajectory(t *testing.T) {
	g := testGraph(t, 12)
	st := testStore(t)
	clock := &testClock{now: time.Now()}
	opts := GraphOptions{BurnIn: 100, Budget: 200, TTL: time.Minute, SourceFactory: upstream}
	ws := testWorkspace(t, WorkspaceConfig{Store: st, now: clock.Now}, "g", g, opts)
	ctx := context.Background()
	pair := []graph.LabelPair{{T1: 1, T2: 2}}
	if _, err := ws.Estimate(ctx, "g", Query{Pairs: pair}); err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys("g")
	if err != nil || len(keys) != 1 {
		t.Fatalf("recording was not persisted: %v %v", keys, err)
	}
	path, err := st.Path("g", keys[0])
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	recorded := fi.ModTime()

	// A restart within the TTL warm-starts the file; one past it does not.
	warmAt := func(at time.Time) int {
		t.Helper()
		c := &testClock{now: at}
		w, err := NewWorkspace(WorkspaceConfig{Store: st, now: c.Now})
		if err != nil {
			t.Fatal(err)
		}
		warmed, err := w.AddGraph("g", g, &opts)
		if err != nil {
			t.Fatal(err)
		}
		return warmed
	}
	if got := warmAt(recorded.Add(30 * time.Second)); got != 1 {
		t.Errorf("warm start within the TTL loaded %d trajectories, want 1", got)
	}
	if got := warmAt(recorded.Add(2 * time.Minute)); got != 0 {
		t.Errorf("warm start past the TTL loaded %d trajectories, want 0", got)
	}

	// Past the TTL the running workspace re-records rather than reloading
	// the expired file.
	clock.Set(recorded.Add(2 * time.Minute))
	a, err := ws.Estimate(ctx, "g", Query{Pairs: pair})
	if err != nil || a.CacheHit {
		t.Fatalf("past TTL: want re-recording, got %+v err %v", a, err)
	}
	e, _ := ws.Graph("g")
	if s := e.Stats(); s.Recordings != 2 || s.StoreLoads != 0 {
		t.Errorf("stats = %+v, want 2 recordings and no store load", s)
	}
}

// TestEngineBatchesConcurrentQueries: queries arriving within the batching
// window share one recording and split its bill.
func TestEngineBatchesConcurrentQueries(t *testing.T) {
	g := testGraph(t, 6)
	e := testEngine(t, g, Config{Budget: 400, BatchWindow: 150 * time.Millisecond})
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	const clients = 8
	answers := make([]*Answer, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = e.Estimate(context.Background(), Query{Pairs: pair})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Recordings != 1 {
		t.Fatalf("%d clients triggered %d recordings, want 1 (batched)", clients, st.Recordings)
	}
	var charged int64
	sharers := 0
	for _, a := range answers {
		charged += a.Charged
		if !a.CacheHit {
			sharers++
		}
		if a.Pairs[0].Estimates["NeighborSample-HH"] != answers[0].Pairs[0].Estimates["NeighborSample-HH"] {
			t.Error("co-batched clients saw different estimates")
		}
	}
	if sharers == 0 {
		t.Error("no client recorded as paying for the walk")
	}
	if charged > st.UpstreamCalls+int64(clients) {
		t.Errorf("charged total %d exceeds upstream spend %d", charged, st.UpstreamCalls)
	}
	// The bill split: every payer saw the final sharer count, which is the
	// number of payers, and paid its even share; hits paid nothing.
	for i, a := range answers {
		switch {
		case a.CacheHit && (a.SharedBy != 0 || a.Charged != 0):
			t.Errorf("client %d: cache hit with SharedBy %d, Charged %d; want 0, 0", i, a.SharedBy, a.Charged)
		case !a.CacheHit && (a.SharedBy != sharers || a.Charged != a.APICalls/int64(sharers)):
			t.Errorf("client %d: SharedBy %d, Charged %d of %d calls; want %d sharers paying %d each",
				i, a.SharedBy, a.Charged, a.APICalls, sharers, a.APICalls/int64(sharers))
		}
	}
}

// TestEngineConcurrentMixedLoad hammers the engine from many goroutines
// with differing configurations and pair sets, recording through an
// upstream source whose short TTL keeps trajectories expiring and
// re-recording underneath — the race-detector contract for the serving
// layer.
func TestEngineConcurrentMixedLoad(t *testing.T) {
	g := testGraph(t, 7)
	e := testEngine(t, g, Config{Budget: 150, BatchWindow: 5 * time.Millisecond, TTL: 50 * time.Millisecond, SourceFactory: upstream})
	pairs := [][]graph.LabelPair{
		{{T1: 1, T2: 2}},
		{{T1: 1, T2: 1}, {T1: 2, T2: 2}},
		{{T1: 1, T2: 2}, {T1: 1, T2: 1}, {T1: 2, T2: 2}},
	}

	const goroutines = 16
	const perG = 6
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				q := Query{
					Pairs:   pairs[(i+j)%len(pairs)],
					Seed:    int64(1 + (i*perG+j)%7),
					Walkers: 1 + (i % 2), // exercise serial and fleet recordings
				}
				a, err := e.Estimate(context.Background(), q)
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", i, j, err)
					return
				}
				if len(a.Pairs) != len(q.Pairs) {
					t.Errorf("got %d pair answers, want %d", len(a.Pairs), len(q.Pairs))
					return
				}
				_ = e.Stats()
			}
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	if st.Queries != goroutines*perG {
		t.Errorf("admitted %d queries, want %d", st.Queries, goroutines*perG)
	}
	if st.Recordings == 0 {
		t.Error("no recordings at all")
	}
}

// TestEngineCacheBounded: a client sweeping seeds must not accumulate one
// recording's memory per seed forever — the workspace byte budget keeps the
// cache within bounds, keeps the most recent trajectory, and an evicted one
// comes back from disk instead of being re-walked.
func TestEngineCacheBounded(t *testing.T) {
	g := testGraph(t, 9)
	ctx := context.Background()
	pair := []graph.LabelPair{{T1: 1, T2: 2}}
	opts := GraphOptions{Budget: 150}

	// Size the budget from one recording: room for about three.
	probe := testWorkspace(t, WorkspaceConfig{}, "g", g, opts)
	if _, err := probe.Estimate(ctx, "g", Query{Pairs: pair, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	budget := 3*probe.CachedBytes() + probe.CachedBytes()/2

	ws := testWorkspace(t, WorkspaceConfig{Store: testStore(t), CacheBytes: budget}, "g", g, opts)
	e, _ := ws.Graph("g")
	for seed := int64(1); seed <= 10; seed++ {
		if _, err := ws.Estimate(ctx, "g", Query{Pairs: pair, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if got := ws.CachedBytes(); got > budget {
			t.Fatalf("after seed %d the cache holds %d bytes, budget %d", seed, got, budget)
		}
	}
	if n := e.CachedTrajectories(); n < 2 || n > 4 {
		t.Errorf("cache holds %d trajectories, want about 3", n)
	}
	// The most recent seed survived the LRU sweep: querying it is a hit.
	a, err := ws.Estimate(ctx, "g", Query{Pairs: pair, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !a.CacheHit {
		t.Error("most recently used trajectory was evicted")
	}
	// An evicted seed reloads from disk rather than re-recording.
	a, err = ws.Estimate(ctx, "g", Query{Pairs: pair, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); !a.CacheHit || s.Recordings != 10 || s.StoreLoads != 1 {
		t.Errorf("evicted seed 1: cache hit %v, stats %+v; want a store load and no 11th recording", a.CacheHit, s)
	}
}

// TestEngineFailedRecordingNotServedStale: a recording failure must not be
// cached — queries arriving after the failure retry with a fresh walk
// instead of inheriting the stale error.
func TestEngineFailedRecordingNotServedStale(t *testing.T) {
	g := testGraph(t, 10)
	e := testEngine(t, g, Config{Budget: 150})
	key := store.Key{Budget: e.cfg.Budget, Walkers: e.cfg.Walkers, Seed: e.cfg.Seed}

	// Manufacture a completed-but-failed recording in the cache, as record()
	// would have left it before the fix.
	ent := &entry{ready: make(chan struct{}), err: errors.New("transient recording failure"), sharers: 1}
	close(ent.ready)
	e.mu.Lock()
	e.cache[key] = ent
	e.mu.Unlock()

	a, err := e.Estimate(context.Background(), Query{Pairs: []graph.LabelPair{{T1: 1, T2: 2}}})
	if err != nil {
		t.Fatalf("query inherited a stale recording error: %v", err)
	}
	if a.CacheHit {
		t.Error("failed entry served as a cache hit")
	}
	if st := e.Stats(); st.Recordings != 1 {
		t.Errorf("recordings = %d, want 1 (the retry)", st.Recordings)
	}
}

// TestEngineCancelledQuery: a cancelled context aborts the caller promptly
// and later queries still work.
func TestEngineCancelledQuery(t *testing.T) {
	g := testGraph(t, 8)
	e := testEngine(t, g, Config{Budget: 200, BatchWindow: 200 * time.Millisecond})
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Estimate(ctx, Query{Pairs: pair}); err == nil {
		t.Error("want error for pre-cancelled context")
	}
	if _, err := e.Estimate(context.Background(), Query{Pairs: pair}); err != nil {
		t.Fatalf("engine wedged after cancelled query: %v", err)
	}
}
