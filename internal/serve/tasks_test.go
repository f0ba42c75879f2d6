package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/osn"
	"repro/internal/sizeest"
	"repro/internal/stats"
)

// TestEngineKindValidation: unknown kinds and bad task parameters are
// rejected as ErrBadQuery before any API spend.
func TestEngineKindValidation(t *testing.T) {
	g := testGraph(t, 40)
	e := testEngine(t, g, Config{Budget: 300})
	ctx := context.Background()

	for name, q := range map[string]Query{
		"unknown kind":      {Kind: "degree-rank"},
		"motif no shape":    {Kind: "motif", Pairs: []graph.LabelPair{{T1: 1, T2: 2}}},
		"motif bad shape":   {Kind: "motif", Motif: "squares"},
		"pairs kindenforce": {Kind: "pairs"},
		"census bad top":    {Kind: "census", Top: -1},
	} {
		_, err := e.Estimate(ctx, q)
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: want ErrBadQuery, got %v", name, err)
		}
	}
	if st := e.Stats(); st.Recordings != 0 || st.UpstreamCalls != 0 {
		t.Errorf("validation failures must not spend API calls: %+v", st)
	}
}

// TestEngineMixedKindsShareOneTrajectory is the acceptance scenario: a
// mixed batch — pairs, size, census, motif — at one configuration is
// served by ONE recorded trajectory, so the total charged API cost equals a
// single estimate's, and every answer is the exact replay an offline
// RecordTrajectory + task dispatch would produce.
func TestEngineMixedKindsShareOneTrajectory(t *testing.T) {
	g := testGraph(t, 41)
	const budget, seed = 500, int64(7)
	e := testEngine(t, g, Config{Budget: budget, Seed: seed})
	ctx := context.Background()
	pair := graph.LabelPair{T1: 1, T2: 2}

	pairsAns, err := e.Estimate(ctx, Query{Pairs: []graph.LabelPair{pair}})
	if err != nil {
		t.Fatal(err)
	}
	sizeAns, err := e.Estimate(ctx, Query{Kind: "size"})
	if err != nil {
		t.Fatal(err)
	}
	censusAns, err := e.Estimate(ctx, Query{Kind: "census", Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	motifAns, err := e.Estimate(ctx, Query{Kind: "motif", Motif: "triangles", Pairs: []graph.LabelPair{pair}})
	if err != nil {
		t.Fatal(err)
	}

	// One recording, paid once: every later kind is a free cache hit.
	st := e.Stats()
	if st.Recordings != 1 {
		t.Fatalf("mixed-kind batch triggered %d recordings, want 1", st.Recordings)
	}
	totalCharged := pairsAns.Charged + sizeAns.Charged + censusAns.Charged + motifAns.Charged
	if totalCharged != pairsAns.APICalls {
		t.Errorf("batch charged %d calls, want exactly one trajectory's %d", totalCharged, pairsAns.APICalls)
	}
	for name, ans := range map[string]*Answer{"size": sizeAns, "census": censusAns, "motif": motifAns} {
		if !ans.CacheHit || ans.Charged != 0 {
			t.Errorf("%s should ride the cached trajectory free: %+v", name, ans)
		}
		if ans.APICalls != pairsAns.APICalls || ans.Samples != pairsAns.Samples {
			t.Errorf("%s reports a different trajectory: %+v", name, ans)
		}
	}
	if st.TasksByKind["pairs"] != 1 || st.TasksByKind["size"] != 1 ||
		st.TasksByKind["census"] != 1 || st.TasksByKind["motif"] != 1 {
		t.Errorf("per-kind stats wrong: %v", st.TasksByKind)
	}

	// Replay consistency: reproduce the engine's recording offline (same
	// seed derivation) and check each kind's answer equals the direct
	// registry dispatch on it.
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dseed := stats.Derive(seed, "serve/trajectory")
	traj, err := core.RecordTrajectory(s, budget, core.Options{
		BurnIn:       e.BurnIn(),
		Rng:          stats.NewSeedSequence(dseed).NextRand(),
		Start:        -1,
		BudgetDriven: true,
		Walkers:      1,
		Seed:         stats.Derive(dseed, "fleet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.RunTask(traj, "size", core.TaskParams{})
	if err != nil {
		t.Fatal(err)
	}
	wantSize := out.(sizeest.Result)
	gotSize := sizeAns.Result.(sizeest.Result)
	if math.Float64bits(gotSize.Nodes) != math.Float64bits(wantSize.Nodes) ||
		math.Float64bits(gotSize.Edges) != math.Float64bits(wantSize.Edges) {
		t.Errorf("size answer differs from offline replay: %+v vs %+v", gotSize, wantSize)
	}
	out, err = core.RunTask(traj, "census", core.TaskParams{Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantCensus := out.(core.CensusResult)
	gotCensus := censusAns.Result.(core.CensusResult)
	if len(gotCensus.Pairs) != len(wantCensus.Pairs) {
		t.Fatalf("census row counts differ: %d vs %d", len(gotCensus.Pairs), len(wantCensus.Pairs))
	}
	for i := range wantCensus.Pairs {
		if gotCensus.Pairs[i] != wantCensus.Pairs[i] {
			t.Errorf("census row %d differs: %#v vs %#v", i, gotCensus.Pairs[i], wantCensus.Pairs[i])
		}
	}
	out, err = core.RunTask(traj, "motif", core.TaskParams{Motif: motif.ShapeTriangles, Pairs: []graph.LabelPair{pair}})
	if err != nil {
		t.Fatal(err)
	}
	wantTri := out.(motif.TaskResult).Rows[0]
	gotMotif := motifAns.Result.(motif.TaskResult)
	if math.Float64bits(gotMotif.Rows[0].Estimate) != math.Float64bits(wantTri.Estimate) {
		t.Errorf("motif answer %v differs from offline replay %v", gotMotif.Rows[0].Estimate, wantTri.Estimate)
	}
}

// TestEngineEstimationError: a replay that cannot produce an estimate from
// a valid trajectory (size with a 2-call budget: one sample, no collisions)
// surfaces as ErrEstimation, and the trajectory stays cached for kinds that
// can use it.
func TestEngineEstimationError(t *testing.T) {
	g := testGraph(t, 42)
	e := testEngine(t, g, Config{Budget: 400})
	ctx := context.Background()

	_, err := e.Estimate(ctx, Query{Kind: "size", Budget: 2})
	if !errors.Is(err, ErrEstimation) {
		t.Fatalf("want ErrEstimation, got %v", err)
	}
	// The recording itself succeeded and is reusable by a census query.
	ans, err := e.Estimate(ctx, Query{Kind: "census", Budget: 2})
	if err != nil {
		t.Fatalf("census over the cached tiny trajectory: %v", err)
	}
	if !ans.CacheHit {
		t.Errorf("census should reuse the cached trajectory: %+v", ans)
	}
}

// TestEngineConcurrentMixedKinds hammers one engine with every kind from
// many goroutines (race coverage for the registry dispatch and the shared
// stats), checking all answers resolve against a bounded recording count.
func TestEngineConcurrentMixedKinds(t *testing.T) {
	g := testGraph(t, 43)
	e := testEngine(t, g, Config{Budget: 300})
	pair := []graph.LabelPair{{T1: 1, T2: 2}}
	queries := []Query{
		{Pairs: pair},
		{Kind: "size"},
		{Kind: "census", Top: 3},
		{Kind: "motif", Motif: "wedges", Pairs: pair},
		{Kind: "motif", Motif: "triangles"},
	}

	const clients = 20
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			q.Seed = int64(1 + i%2) // two configurations
			if _, err := e.Estimate(context.Background(), q); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Queries != clients {
		t.Errorf("queries = %d, want %d", st.Queries, clients)
	}
	if st.Recordings > 2 {
		t.Errorf("mixed kinds over two configurations recorded %d trajectories, want <= 2", st.Recordings)
	}
}

// TestHTTPKindDispatch exercises the kind field end to end over HTTP:
// size, census and motif answers ride one trajectory (cache hits after the
// first), and the wire schema carries the kind-specific payloads.
func TestHTTPKindDispatch(t *testing.T) {
	g := testGraph(t, 44)
	ws := testWorkspace(t, WorkspaceConfig{}, "g", g, GraphOptions{Budget: 400})
	srv := httptest.NewServer(NewHandler(ws))
	t.Cleanup(srv.Close)
	e, err := ws.Graph("g")
	if err != nil {
		t.Fatal(err)
	}

	post := func(body string) (estimateResponse, int) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out estimateResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out, resp.StatusCode
	}

	sizeResp, status := post(`{"kind": "size", "seed": 5}`)
	if status != http.StatusOK || sizeResp.Kind != "size" || sizeResp.Size == nil {
		t.Fatalf("size response: status=%d %+v", status, sizeResp)
	}
	if sizeResp.Size.Nodes <= 0 || sizeResp.Size.Edges <= 0 || sizeResp.Size.Collisions <= 0 {
		t.Errorf("size payload implausible: %+v", sizeResp.Size)
	}
	if sizeResp.CacheHit {
		t.Error("first query of the configuration cannot be a cache hit")
	}

	censusResp, status := post(`{"kind": "census", "top": 2, "seed": 5}`)
	if status != http.StatusOK || censusResp.Kind != "census" || len(censusResp.Census) == 0 {
		t.Fatalf("census response: status=%d %+v", status, censusResp)
	}
	if len(censusResp.Census) > 2 {
		t.Errorf("top=2 returned %d rows", len(censusResp.Census))
	}
	if !censusResp.CacheHit {
		t.Error("census should share the size query's trajectory (same config)")
	}

	motifResp, status := post(`{"kind": "motif", "motif": "triangles", "pairs": [[1,2]], "seed": 5}`)
	if status != http.StatusOK || motifResp.Kind != "motif" || motifResp.Motif == nil {
		t.Fatalf("motif response: status=%d %+v", status, motifResp)
	}
	if motifResp.Motif.Shape != "triangles" || len(motifResp.Motif.Rows) != 1 {
		t.Errorf("motif payload wrong: %+v", motifResp.Motif)
	}
	if row := motifResp.Motif.Rows[0]; row.Pair == nil || row.T1 != 1 || row.T2 != 2 {
		t.Errorf("motif row should echo the pair (1,2), got %v", row.Pair)
	}
	if !motifResp.CacheHit {
		t.Error("motif should share the same trajectory (same config)")
	}

	unlabeled, status := post(`{"kind": "motif", "motif": "wedges", "seed": 5}`)
	if status != http.StatusOK || len(unlabeled.Motif.Rows) != 1 || unlabeled.Motif.Rows[0].Pair != nil {
		t.Fatalf("unlabeled motif response: status=%d %+v", status, unlabeled)
	}

	if e.Stats().Recordings != 1 {
		t.Errorf("four kinds recorded %d trajectories, want 1 shared", e.Stats().Recordings)
	}

	// Error codes: unknown kind and missing motif shape are 400s; a size
	// replay over a 2-call trajectory is a 422.
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"kind": "degree-rank"}`, http.StatusBadRequest},
		{`{"kind": "motif"}`, http.StatusBadRequest},
		{`{"kind": "census", "top": -2}`, http.StatusBadRequest},
		{`{"kind": "size", "budget": 2, "seed": 9}`, http.StatusUnprocessableEntity},
	} {
		if _, status := post(tc.body); status != tc.status {
			t.Errorf("%s: status %d, want %d", tc.body, status, tc.status)
		}
	}

	// /methods now advertises the registered kinds.
	resp, err := http.Get(srv.URL + "/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var methods map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&methods); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", []string{"assortativity", "census", "motif", "pairs", "size"})
	if got := fmt.Sprintf("%v", methods["kinds"]); got != want {
		t.Errorf("kinds = %v, want %v", got, want)
	}

	// /graphs exposes the per-graph, per-kind counters.
	resp2, err := http.Get(srv.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var listing graphsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 1 || listing.Graphs[0].Name != "g" {
		t.Fatalf("graphs listing = %+v", listing)
	}
	if byKind := listing.Graphs[0].TasksByKind; byKind["motif"] != 2 || byKind["size"] != 1 {
		t.Errorf("tasks_by_kind = %v", byKind)
	}
}
