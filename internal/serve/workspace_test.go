package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/store"
)

// smallTestGraph builds a labeled graph deliberately smaller than
// testGraph's, for tests that need two graphs of different sizes.
func smallTestGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, err := gen.BarabasiAlbert(500, 4, rng)
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

// testStore opens a trajectory store under a test temp dir.
func testStore(t testing.TB) *store.Dir {
	t.Helper()
	d, err := store.NewDir(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// payload strips an Answer down to the replayed results, so pre- and
// post-restart answers can be compared bit for bit while the serving
// metadata (CacheHit, Charged, SharedBy) legitimately differs.
func payload(ans *Answer) (pairs []PairAnswer, result any, apiCalls int64, samples int) {
	return ans.Pairs, ans.Result, ans.APICalls, ans.Samples
}

func TestWorkspaceRouting(t *testing.T) {
	g1, g2 := testGraph(t, 50), testGraph(t, 51)
	ws := testWorkspace(t, WorkspaceConfig{}, "g1", g1, GraphOptions{Budget: 200})
	ctx := context.Background()
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	// One graph loaded: the empty name routes to it.
	if _, err := ws.Estimate(ctx, "", Query{Pairs: pair}); err != nil {
		t.Fatalf("empty graph name with one graph: %v", err)
	}
	if _, err := ws.Estimate(ctx, "nope", Query{Pairs: pair}); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("unknown graph: want ErrUnknownGraph, got %v", err)
	}

	if _, err := ws.AddGraph("g1", g2, &GraphOptions{BurnIn: 100}); !errors.Is(err, ErrGraphExists) {
		t.Errorf("duplicate AddGraph: want ErrGraphExists, got %v", err)
	}
	if _, err := ws.AddGraph("bad/name", g2, nil); !errors.Is(err, ErrBadQuery) {
		t.Errorf("invalid name: want ErrBadQuery, got %v", err)
	}
	if _, err := ws.AddGraph("g2", g2, &GraphOptions{BurnIn: 100, Budget: 200}); err != nil {
		t.Fatal(err)
	}

	// Two graphs: the empty name is ambiguous, explicit names route.
	if _, err := ws.Estimate(ctx, "", Query{Pairs: pair}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("ambiguous empty graph name: want ErrBadQuery, got %v", err)
	}
	if _, err := ws.Estimate(ctx, "g2", Query{Pairs: pair}); err != nil {
		t.Fatalf("named graph: %v", err)
	}
	infos := ws.List()
	if len(infos) != 2 || infos[0].Name != "g1" || infos[1].Name != "g2" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[1].Stats.Queries != 1 || infos[1].Stats.Recordings != 1 {
		t.Errorf("g2 stats = %+v", infos[1].Stats)
	}

	if err := ws.RemoveGraph("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("RemoveGraph unknown: want ErrUnknownGraph, got %v", err)
	}
	if err := ws.RemoveGraph("g2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Estimate(ctx, "g2", Query{Pairs: pair}); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("estimate after unload: want ErrUnknownGraph, got %v", err)
	}
}

// TestWorkspaceRestartZeroSpend is the PR's acceptance scenario: a server
// restarted against a populated store answers previously cached queries
// with ZERO API-metered calls, and its answers are bit-identical to the
// pre-restart results.
func TestWorkspaceRestartZeroSpend(t *testing.T) {
	g := testGraph(t, 60)
	st := testStore(t)
	ctx := context.Background()
	opts := GraphOptions{Budget: 400, Seed: 3}
	queries := []Query{
		{Pairs: []graph.LabelPair{{T1: 1, T2: 2}, {T1: 1, T2: 1}}},
		{Kind: "size"},
		{Kind: "census", Top: 4},
		{Kind: "motif", Motif: "triangles", Pairs: []graph.LabelPair{{T1: 1, T2: 2}}},
	}

	// First life: record, answer, persist.
	ws1 := testWorkspace(t, WorkspaceConfig{Store: st}, "g", g, opts)
	before := make([]*Answer, len(queries))
	for i, q := range queries {
		ans, err := ws1.Estimate(ctx, "g", q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		before[i] = ans
	}
	if err := ws1.Flush(); err != nil {
		t.Fatal(err)
	}
	e1, _ := ws1.Graph("g")
	st1 := e1.Stats()
	if st1.Recordings != 1 || st1.StoreSaves == 0 {
		t.Fatalf("first life stats = %+v, want 1 recording persisted", st1)
	}

	// Second life: a fresh workspace over the same store. The trajectory
	// must come back from disk — not from a new walk.
	ws2 := testWorkspace(t, WorkspaceConfig{Store: st}, "g", g, opts)
	e2, _ := ws2.Graph("g")
	if got := e2.CachedTrajectories(); got != 1 {
		t.Fatalf("warm start loaded %d trajectories, want 1", got)
	}
	for i, q := range queries {
		ans, err := ws2.Estimate(ctx, "g", q)
		if err != nil {
			t.Fatalf("restarted query %d: %v", i, err)
		}
		if !ans.CacheHit || ans.Charged != 0 {
			t.Errorf("restarted query %d should be a free cache hit: %+v", i, ans)
		}
		gp, gr, ga, gs := payload(ans)
		wp, wr, wa, wsamp := payload(before[i])
		if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gr, wr) || ga != wa || gs != wsamp {
			t.Errorf("restarted query %d differs from the pre-restart answer:\n got %+v %+v\nwant %+v %+v", i, gp, gr, wp, wr)
		}
	}
	st2 := e2.Stats()
	if st2.Recordings != 0 || st2.UpstreamCalls != 0 {
		t.Errorf("restart spent API calls: %+v (want zero recordings, zero upstream)", st2)
	}
	if st2.StoreLoads == 0 {
		t.Errorf("restart did not load from the store: %+v", st2)
	}
}

// TestWorkspaceEvictedTrajectoryReloadsFromDisk: an entry evicted by the
// byte budget is persisted on the way out and reloaded — not re-walked —
// when requested again.
func TestWorkspaceEvictedTrajectoryReloadsFromDisk(t *testing.T) {
	g := testGraph(t, 61)
	st := testStore(t)
	ws := testWorkspace(t, WorkspaceConfig{Store: st, CacheBytes: 1}, "g", g, GraphOptions{Budget: 300})
	ctx := context.Background()
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	first, err := ws.Estimate(ctx, "g", Query{Pairs: pair, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Estimate(ctx, "g", Query{Pairs: pair, Seed: 2}); err != nil { // evicts seed 1
		t.Fatal(err)
	}
	again, err := ws.Estimate(ctx, "g", Query{Pairs: pair, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Charged != 0 {
		t.Errorf("evicted-then-requested should reload free from disk: %+v", again)
	}
	gp, gr, ga, gs := payload(again)
	wp, wr, wa, wsamp := payload(first)
	if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gr, wr) || ga != wa || gs != wsamp {
		t.Error("reloaded answer differs from the original recording's")
	}
	e, _ := ws.Graph("g")
	if st := e.Stats(); st.Recordings != 2 || st.StoreLoads != 1 {
		t.Errorf("stats = %+v, want 2 recordings and 1 store load", st)
	}
}

// TestWorkspaceByteBudget: over the byte budget the globally LRU
// trajectory is evicted (persisted first), keeping total cache weight
// bounded across graphs while queries still resolve.
func TestWorkspaceByteBudget(t *testing.T) {
	g1, g2 := testGraph(t, 62), testGraph(t, 63)
	st := testStore(t)
	// A budget of 1 byte forces eviction after every recording.
	ws := testWorkspace(t, WorkspaceConfig{Store: st, CacheBytes: 1}, "g1", g1, GraphOptions{Budget: 200})
	if _, err := ws.AddGraph("g2", g2, &GraphOptions{BurnIn: 100, Budget: 200}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	if _, err := ws.Estimate(ctx, "g1", Query{Pairs: pair}); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Estimate(ctx, "g2", Query{Pairs: pair}); err != nil {
		t.Fatal(err)
	}
	if got := ws.CachedBytes(); got > 1 {
		t.Errorf("cache holds %d bytes, budget is 1", got)
	}
	// The evicted trajectories were persisted, so re-querying loads from
	// disk instead of re-walking.
	if _, err := ws.Estimate(ctx, "g1", Query{Pairs: pair}); err != nil {
		t.Fatal(err)
	}
	e1, _ := ws.Graph("g1")
	if st := e1.Stats(); st.Recordings != 1 || st.StoreLoads != 1 {
		t.Errorf("g1 stats = %+v, want 1 recording + 1 store load", st)
	}
}

// TestEngineBatchSharesOneTrajectory: a same-graph mixed-kind batch is
// served by ONE trajectory; a batch mixing trajectory configurations is
// rejected before any spend.
func TestEngineBatchSharesOneTrajectory(t *testing.T) {
	g := testGraph(t, 64)
	e := testEngine(t, g, Config{Budget: 400})
	ctx := context.Background()
	pair := []graph.LabelPair{{T1: 1, T2: 2}}

	answers, err := e.EstimateBatch(ctx, []Query{
		{Pairs: pair},
		{Kind: "size"},
		{Kind: "census", Top: 3},
		{Kind: "motif", Motif: "wedges", Pairs: pair},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Fatalf("got %d answers", len(answers))
	}
	st := e.Stats()
	if st.Recordings != 1 {
		t.Fatalf("batch of 4 kinds recorded %d trajectories, want 1", st.Recordings)
	}
	for i, ans := range answers {
		if ans.Err != nil {
			t.Errorf("answer %d: %v", i, ans.Err)
		}
		if ans.APICalls != answers[0].APICalls || ans.Samples != answers[0].Samples {
			t.Errorf("answer %d reports a different trajectory", i)
		}
		if ans.CacheHit {
			t.Errorf("answer %d of the triggering batch claims a cache hit", i)
		}
	}
	if st.Queries != 4 || st.TasksByKind["motif"] != 1 {
		t.Errorf("stats = %+v", st)
	}

	// A second identical batch rides the cache.
	again, err := e.EstimateBatch(ctx, []Query{{Kind: "size"}, {Kind: "census"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range again {
		if !ans.CacheHit || ans.Charged != 0 {
			t.Errorf("cached batch answer %d not free: %+v", i, ans)
		}
	}

	// Mixed configurations cannot share a walk.
	if _, err := e.EstimateBatch(ctx, []Query{{Kind: "size"}, {Kind: "census", Seed: 9}}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("mixed-config batch: want ErrBadQuery, got %v", err)
	}
	if _, err := e.EstimateBatch(ctx, nil); !errors.Is(err, ErrBadQuery) {
		t.Errorf("empty batch: want ErrBadQuery, got %v", err)
	}
	if got := e.Stats().Recordings; got != 1 {
		t.Errorf("invalid batches must not record: %d recordings", got)
	}
}

// TestEngineFlushRetriesFailedSaves: a recording whose eager save failed
// stays dirty and is persisted by the shutdown Flush once the store is
// writable again.
func TestEngineFlushRetriesFailedSaves(t *testing.T) {
	g := testGraph(t, 65)
	st := testStore(t)
	// Occupy the graph's store subdirectory with a regular file, so saves
	// fail with "not a directory" regardless of privileges.
	blocker := filepath.Join(st.Root(), "g")
	if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	ws := testWorkspace(t, WorkspaceConfig{Store: st}, "g", g, GraphOptions{Budget: 200})
	if _, err := ws.Estimate(context.Background(), "g", Query{Pairs: []graph.LabelPair{{T1: 1, T2: 2}}}); err != nil {
		t.Fatal(err)
	}
	e, _ := ws.Graph("g")
	if stats := e.Stats(); stats.StoreErrors == 0 || stats.StoreSaves != 0 {
		t.Fatalf("blocked save should fail: %+v", stats)
	}
	keys, _ := st.Keys("g")
	if len(keys) != 0 {
		t.Fatalf("no trajectory should be persisted yet, found %v", keys)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatalf("Flush after unblocking: %v", err)
	}
	keys, err := st.Keys("g")
	if err != nil || len(keys) != 1 {
		t.Fatalf("Flush did not persist the dirty trajectory: keys=%v err=%v", keys, err)
	}
	if stats := e.Stats(); stats.StoreSaves != 1 {
		t.Errorf("stats after flush = %+v", stats)
	}
	// A second Flush has nothing dirty left to write.
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if stats := e.Stats(); stats.StoreSaves != 1 {
		t.Errorf("idempotent flush re-saved: %+v", stats)
	}
}

// pairQuery is shorthand for a default-kind query.
func pairQuery(pairs []graph.LabelPair) Query { return Query{Pairs: pairs} }

// TestWorkspaceStaleStoreFileIgnored: a persisted trajectory recorded
// against DIFFERENT graph priors (same name, swapped data) is skipped at
// warm start and on miss — its estimates would scale by the wrong |V|/|E|.
func TestWorkspaceStaleStoreFileIgnored(t *testing.T) {
	gOld := testGraph(t, 67)
	gNew := smallTestGraph(t, 68)
	if gOld.NumNodes() == gNew.NumNodes() && gOld.NumEdges() == gNew.NumEdges() {
		t.Fatal("test graphs must differ in size")
	}
	st := testStore(t)
	ws1 := testWorkspace(t, WorkspaceConfig{Store: st}, "g", gOld, GraphOptions{Budget: 200})
	if _, err := ws1.Estimate(context.Background(), "g", pairQuery([]graph.LabelPair{{T1: 1, T2: 2}})); err != nil {
		t.Fatal(err)
	}

	ws2, err := NewWorkspace(WorkspaceConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := ws2.AddGraph("g", gNew, &GraphOptions{BurnIn: 100, Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 0 {
		t.Errorf("warm start accepted %d stale trajectories", warmed)
	}
	ans, err := ws2.Estimate(context.Background(), "g", pairQuery([]graph.LabelPair{{T1: 1, T2: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if ans.CacheHit {
		t.Error("stale store file served a query against the new graph")
	}
	e2, _ := ws2.Graph("g")
	if stats := e2.Stats(); stats.StoreErrors == 0 {
		t.Errorf("stale files should be counted as store errors: %+v", stats)
	}
}

// TestWorkspaceBurnInMismatchIgnored: a persisted trajectory recorded
// under a DIFFERENT burn-in is not the trajectory this server would
// record — it is skipped at warm start and on miss, like a prior mismatch.
func TestWorkspaceBurnInMismatchIgnored(t *testing.T) {
	g := testGraph(t, 69)
	st := testStore(t)
	ws1 := testWorkspace(t, WorkspaceConfig{Store: st}, "g", g, GraphOptions{Budget: 200, BurnIn: 100})
	if _, err := ws1.Estimate(context.Background(), "g", pairQuery([]graph.LabelPair{{T1: 1, T2: 2}})); err != nil {
		t.Fatal(err)
	}

	ws3, err := NewWorkspace(WorkspaceConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := ws3.AddGraph("g", g, &GraphOptions{Budget: 200, BurnIn: 150})
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 0 {
		t.Errorf("warm start accepted %d trajectories recorded under another burn-in", warmed)
	}
	ans, err := ws3.Estimate(context.Background(), "g", pairQuery([]graph.LabelPair{{T1: 1, T2: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if ans.CacheHit {
		t.Error("burn-in-mismatched store file served a query")
	}
}

// TestHTTPWorkspaceAdmin drives the admin surface end to end: loading and
// unloading graphs over HTTP, the graph query field, batches, and the new
// status codes — 404 unknown graph, 409 load conflict, 400 mixed-graph
// batch.
func TestHTTPWorkspaceAdmin(t *testing.T) {
	g1, g2 := testGraph(t, 70), testGraph(t, 71)
	graphsDir := t.TempDir()
	if err := snapshot.Save(filepath.Join(graphsDir, "beta.osnb"), g2); err != nil {
		t.Fatal(err)
	}
	ws := testWorkspace(t, WorkspaceConfig{GraphsDir: graphsDir, Defaults: GraphOptions{BurnIn: 100, Budget: 200}},
		"alpha", g1, GraphOptions{Budget: 200})
	srv := httptest.NewServer(NewHandler(ws))
	t.Cleanup(srv.Close)
	client := srv.Client()

	do := func(method, path, body string) (int, []byte) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	// Load beta from the graphs directory by name.
	status, body := do(http.MethodPut, "/graphs/beta", "")
	if status != http.StatusOK {
		t.Fatalf("PUT /graphs/beta: %d %s", status, body)
	}
	var loaded loadGraphResponse
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "beta" || loaded.Nodes != g2.NumNodes() {
		t.Errorf("load response = %+v", loaded)
	}

	// Conflict, bad name, missing file.
	if status, body := do(http.MethodPut, "/graphs/beta", ""); status != http.StatusConflict {
		t.Errorf("duplicate PUT: %d %s, want 409", status, body)
	}
	if status, _ := do(http.MethodPut, "/graphs/bad..name", ""); status != http.StatusBadRequest {
		t.Errorf("bad name PUT: %d, want 400", status)
	}
	if status, _ := do(http.MethodPut, "/graphs/ghost", ""); status != http.StatusBadRequest {
		t.Errorf("missing snapshot PUT: %d, want 400", status)
	}

	// The listing shows both graphs.
	status, body = do(http.MethodGet, "/graphs", "")
	if status != http.StatusOK {
		t.Fatalf("GET /graphs: %d", status)
	}
	var listing graphsResponse
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 2 || listing.Graphs[0].Name != "alpha" || listing.Graphs[1].Name != "beta" {
		t.Fatalf("listing = %s", body)
	}

	// Queries route by graph name; unknown names 404; the empty name is
	// ambiguous with two graphs loaded.
	if status, body := do(http.MethodPost, "/estimate", `{"graph": "beta", "pairs": [[1,2]]}`); status != http.StatusOK {
		t.Errorf("estimate on beta: %d %s", status, body)
	}
	if status, _ := do(http.MethodPost, "/estimate", `{"graph": "ghost", "pairs": [[1,2]]}`); status != http.StatusNotFound {
		t.Errorf("estimate on unknown graph: %d, want 404", status)
	}
	if status, _ := do(http.MethodPost, "/estimate", `{"pairs": [[1,2]]}`); status != http.StatusBadRequest {
		t.Errorf("ambiguous graphless estimate: %d, want 400", status)
	}

	// A same-graph mixed-kind batch shares ONE trajectory...
	ePre, _ := ws.Graph("beta")
	recBefore := ePre.Stats().Recordings
	status, body = do(http.MethodPost, "/estimate",
		`{"graph": "beta", "seed": 4, "queries": [{"kind": "size"}, {"kind": "census", "top": 3}, {"pairs": [[1,2]]}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var batch batchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Answers) != 3 || batch.Graph != "beta" {
		t.Fatalf("batch response = %s", body)
	}
	if got := ePre.Stats().Recordings - recBefore; got != 1 {
		t.Errorf("mixed-kind batch recorded %d trajectories, want 1", got)
	}
	for i, ans := range batch.Answers {
		if ans.Error != "" {
			t.Errorf("batch answer %d: %s", i, ans.Error)
		}
		if ans.APICalls != batch.Answers[0].APICalls {
			t.Errorf("batch answer %d on a different trajectory", i)
		}
	}

	// ...while a mixed-GRAPH batch is a clear 400.
	status, body = do(http.MethodPost, "/estimate",
		`{"queries": [{"graph": "alpha", "kind": "size"}, {"graph": "beta", "kind": "census"}]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "mixed-graph batch") {
		t.Errorf("mixed-graph batch: %d %s, want 400 naming the mix", status, body)
	}

	// Unload beta; further queries 404, a second DELETE 404s too.
	if status, body := do(http.MethodDelete, "/graphs/beta", ""); status != http.StatusOK {
		t.Errorf("DELETE /graphs/beta: %d %s", status, body)
	}
	if status, _ := do(http.MethodPost, "/estimate", `{"graph": "beta", "pairs": [[1,2]]}`); status != http.StatusNotFound {
		t.Errorf("estimate on unloaded graph: %d, want 404", status)
	}
	if status, _ := do(http.MethodDelete, "/graphs/beta", ""); status != http.StatusNotFound {
		t.Errorf("double DELETE: %d, want 404", status)
	}
}
