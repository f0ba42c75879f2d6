package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
)

// mustKey parses a .osnt key name the test already knows is well-formed.
func mustKey(t *testing.T, name string) store.Key {
	t.Helper()
	k, ok := store.ParseKeyName(name)
	if !ok {
		t.Fatalf("bad key name %q", name)
	}
	return k
}

// trajQuery is the configuration the trajectory tests record and replicate.
var trajQuery = Query{
	Pairs:   []graph.LabelPair{{T1: 1, T2: 2}},
	Budget:  300,
	Walkers: 2,
	Seed:    7,
}

// TestWorkspaceReady: Ready is false while the configured graph count has
// not loaded, true after, and the /healthz body carries the same signal.
func TestWorkspaceReady(t *testing.T) {
	ws, err := NewWorkspace(WorkspaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Ready() {
		t.Error("empty workspace with no expectation should be ready")
	}
	ws.ExpectGraphs(1)
	if ws.Ready() {
		t.Error("expecting 1 graph with none loaded: want not ready")
	}

	srv := httptest.NewServer(NewHandler(ws))
	t.Cleanup(srv.Close)
	if ready := healthzReady(t, srv.URL); ready {
		t.Error("/healthz ready should be false before the graph loads")
	}

	if _, err := ws.AddGraph("g", testGraph(t, 20), &GraphOptions{BurnIn: 40, Budget: 300}); err != nil {
		t.Fatal(err)
	}
	if !ws.Ready() {
		t.Error("all expected graphs loaded: want ready")
	}
	if ready := healthzReady(t, srv.URL); !ready {
		t.Error("/healthz ready should be true after the graph loads")
	}
}

func healthzReady(t *testing.T, base string) bool {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Ready
}

// TestTrajectoryExportImportRoundtrip: bytes exported from one engine and
// imported into a peer serving the same graph make the peer's first query a
// zero-spend cache hit with identical estimates.
func TestTrajectoryExportImportRoundtrip(t *testing.T) {
	g := testGraph(t, 21)
	recorder := testWorkspace(t, WorkspaceConfig{Store: testStore(t)}, "g", g, GraphOptions{BurnIn: 40})
	peer := testWorkspace(t, WorkspaceConfig{Store: testStore(t)}, "g", g, GraphOptions{BurnIn: 40})

	ans, err := recorder.Estimate(context.Background(), "g", trajQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ans.StoreKey == "" {
		t.Fatal("answer carries no trajectory key")
	}
	keys, err := recorder.TrajectoryKeys("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != ans.StoreKey {
		t.Fatalf("TrajectoryKeys = %v, want [%s]", keys, ans.StoreKey)
	}

	raw, recorded, err := recorder.ExportTrajectory("g", ans.StoreKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.ImportTrajectory("g", ans.StoreKey, raw, recorded); err != nil {
		t.Fatal(err)
	}

	ans2, err := peer.Estimate(context.Background(), "g", trajQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !ans2.CacheHit || ans2.Charged != 0 {
		t.Errorf("imported trajectory should serve as a free cache hit: %+v", ans2)
	}
	if len(ans.Pairs) != len(ans2.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(ans.Pairs), len(ans2.Pairs))
	}
	for i := range ans.Pairs {
		for m, v := range ans.Pairs[i].Estimates {
			if v2 := ans2.Pairs[i].Estimates[m]; v2 != v {
				t.Errorf("estimate %s differs after import: %v vs %v", m, v, v2)
			}
		}
	}
	pe, err := peer.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	st := pe.Stats()
	if st.Imports != 1 || st.Recordings != 0 || st.UpstreamCalls != 0 {
		t.Errorf("peer stats = %+v, want 1 import and zero upstream spend", st)
	}

	// The imported bytes persisted verbatim, so a restart warm-starts them.
	if _, err := peer.Store().Stat("g", mustKey(t, ans.StoreKey)); err != nil {
		t.Errorf("imported trajectory not persisted to the peer store: %v", err)
	}
}

// TestExportFromMemoryOnlyEngine: an engine without a store still exports
// its cached trajectory by re-encoding it.
func TestExportFromMemoryOnlyEngine(t *testing.T) {
	g := testGraph(t, 22)
	ws := testWorkspace(t, WorkspaceConfig{}, "g", g, GraphOptions{BurnIn: 40})
	ans, err := ws.Estimate(context.Background(), "g", trajQuery)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := ws.ExportTrajectory("g", ans.StoreKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty export")
	}
	// Unknown keys are fs.ErrNotExist; malformed keys are bad queries.
	if _, _, err := ws.ExportTrajectory("g", "b1_w1_s99_g0.osnt"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unknown key: got %v, want fs.ErrNotExist", err)
	}
	if _, _, err := ws.ExportTrajectory("g", "nonsense"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("malformed key: got %v, want ErrBadQuery", err)
	}
}

// TestImportRejectsBadBytes: every corruption and identity mismatch is
// rejected with ErrBadTrajectory and leaves no cache entry behind.
func TestImportRejectsBadBytes(t *testing.T) {
	g := testGraph(t, 23)
	recorder := testWorkspace(t, WorkspaceConfig{Store: testStore(t)}, "g", g, GraphOptions{BurnIn: 40})
	ans, err := recorder.Estimate(context.Background(), "g", trajQuery)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := recorder.ExportTrajectory("g", ans.StoreKey)
	if err != nil {
		t.Fatal(err)
	}

	truncated := raw[:len(raw)-10]
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x40

	for _, tc := range []struct {
		name string
		key  string
		raw  []byte
		ws   *Workspace
	}{
		{"truncated", ans.StoreKey, truncated, nil},
		{"bit-flipped", ans.StoreKey, flipped, nil},
		{"key version mismatch", "b300_w2_s7_g9.osnt", raw, nil},
		{"burn-in mismatch", ans.StoreKey, raw,
			testWorkspace(t, WorkspaceConfig{}, "g", g, GraphOptions{BurnIn: 60})},
		{"wrong graph", ans.StoreKey, raw,
			testWorkspace(t, WorkspaceConfig{}, "g", testGraph(t, 99), GraphOptions{BurnIn: 40})},
	} {
		ws := tc.ws
		if ws == nil {
			ws = testWorkspace(t, WorkspaceConfig{}, "g", g, GraphOptions{BurnIn: 40})
		}
		if err := ws.ImportTrajectory("g", tc.key, tc.raw, time.Time{}); !errors.Is(err, ErrBadTrajectory) {
			t.Errorf("%s: got %v, want ErrBadTrajectory", tc.name, err)
		}
		e, err := ws.Graph("g")
		if err != nil {
			t.Fatal(err)
		}
		if n := e.CachedTrajectories(); n != 0 {
			t.Errorf("%s: rejected import left %d cache entries", tc.name, n)
		}
	}

	// A malformed key is a bad request, not a bad trajectory.
	ws := testWorkspace(t, WorkspaceConfig{}, "g", g, GraphOptions{BurnIn: 40})
	if err := ws.ImportTrajectory("g", "not-a-key", raw, time.Time{}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("malformed key: got %v, want ErrBadQuery", err)
	}
}

// TestTrajectoryHTTPEndpoints drives the replication path over real HTTP:
// list, pull raw bytes from one server, push to a peer, and the peer serves
// the configuration as a cache hit.
func TestTrajectoryHTTPEndpoints(t *testing.T) {
	g := testGraph(t, 24)
	wsA := testWorkspace(t, WorkspaceConfig{Store: testStore(t)}, "g", g, GraphOptions{BurnIn: 40})
	wsB := testWorkspace(t, WorkspaceConfig{Store: testStore(t)}, "g", g, GraphOptions{BurnIn: 40})
	srvA := httptest.NewServer(NewHandler(wsA))
	srvB := httptest.NewServer(NewHandler(wsB))
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)

	// Record on A and learn the trajectory key from the answer.
	resp, err := http.Post(srvA.URL+"/estimate", "application/json",
		strings.NewReader(`{"pairs": [[1,2]], "budget": 300, "walkers": 2, "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	var est estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if est.StoreKey == "" {
		t.Fatal("estimate response carries no trajectory_key")
	}

	// List and pull.
	resp, err = http.Get(srvA.URL + "/trajectories/g")
	if err != nil {
		t.Fatal(err)
	}
	var listing trajectoriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Keys) != 1 || listing.Keys[0] != est.StoreKey {
		t.Fatalf("listing = %+v, want [%s]", listing, est.StoreKey)
	}
	resp, err = http.Get(srvA.URL + "/trajectories/g/" + est.StoreKey)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pull: status %d err %v", resp.StatusCode, err)
	}
	if _, err := http.ParseTime(resp.Header.Get("Last-Modified")); err != nil {
		t.Errorf("pull carries no recording time: Last-Modified %q", resp.Header.Get("Last-Modified"))
	}

	// Pulling a missing key is a 404.
	resp, err = http.Get(srvA.URL + "/trajectories/g/b1_w1_s99_g0.osnt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing key: status %d, want 404", resp.StatusCode)
	}

	// Push to B; corrupt bytes are a 400, good bytes a 200.
	put := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut,
			srvB.URL+"/trajectories/g/"+est.StoreKey, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(raw[:len(raw)-4]); code != http.StatusBadRequest {
		t.Errorf("truncated push: status %d, want 400", code)
	}
	if code := put(raw); code != http.StatusOK {
		t.Errorf("push: status %d, want 200", code)
	}

	// B now answers the configuration as a cache hit with equal estimates.
	resp, err = http.Post(srvB.URL+"/estimate", "application/json",
		strings.NewReader(`{"pairs": [[1,2]], "budget": 300, "walkers": 2, "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	var est2 estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !est2.CacheHit || est2.Charged != 0 {
		t.Errorf("peer should serve the pushed trajectory for free: %+v", est2)
	}
	if fmt.Sprint(est.Pairs) != fmt.Sprint(est2.Pairs) {
		t.Errorf("estimates differ across replication:\n%v\n%v", est.Pairs, est2.Pairs)
	}

	// Wrong methods keep the JSON error contract.
	resp, err = http.Post(srvA.URL+"/trajectories/g", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST listing: status %d, want 405", resp.StatusCode)
	}
}

// TestImportKeepsRecordingTime: a trajectory pushed with the exporter's
// Last-Modified keeps its recording time, so a migration cannot restart its
// freshness age. Bytes stamped twice the TTL ago are re-recorded on the next
// query; bytes stamped half the TTL ago serve as a cache hit. The store file
// carries the same time, so a reload cannot revive an expired import.
func TestImportKeepsRecordingTime(t *testing.T) {
	g := testGraph(t, 25)
	recorder := testWorkspace(t, WorkspaceConfig{}, "g", g, GraphOptions{BurnIn: 40})
	ans, err := recorder.Estimate(context.Background(), "g", trajQuery)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := recorder.ExportTrajectory("g", ans.StoreKey)
	if err != nil {
		t.Fatal(err)
	}

	const ttl = time.Hour
	for _, tc := range []struct {
		name    string
		age     time.Duration
		wantHit bool
	}{
		{"stamped 2T ago", 2 * ttl, false},
		{"stamped T/2 ago", ttl / 2, true},
	} {
		clock := &testClock{now: time.Now()}
		st := testStore(t)
		ws := testWorkspace(t, WorkspaceConfig{Store: st, now: clock.Now}, "g", g,
			GraphOptions{BurnIn: 40, TTL: ttl, SourceFactory: upstream})
		srv := httptest.NewServer(NewHandler(ws))
		t.Cleanup(srv.Close)

		stamped := clock.Now().Add(-tc.age).Truncate(time.Second)
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/trajectories/g/"+ans.StoreKey, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Modified", stamped.UTC().Format(http.TimeFormat))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: push status %d, want 200", tc.name, resp.StatusCode)
		}
		path, err := st.Path("g", mustKey(t, ans.StoreKey))
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(stamped) {
			t.Errorf("%s: store file dated %v, want %v", tc.name, fi.ModTime(), stamped)
		}

		a, err := ws.Estimate(context.Background(), "g", trajQuery)
		if err != nil {
			t.Fatal(err)
		}
		if a.CacheHit != tc.wantHit {
			t.Errorf("%s: cache hit = %v, want %v", tc.name, a.CacheHit, tc.wantHit)
		}
	}
}
