package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
)

func testServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	g := testGraph(t, 20)
	ws := testWorkspace(t, WorkspaceConfig{}, "g", g, GraphOptions{Budget: 300})
	srv := httptest.NewServer(NewHandler(ws))
	t.Cleanup(srv.Close)
	e, err := ws.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	return srv, e
}

func TestHTTPEstimate(t *testing.T) {
	srv, e := testServer(t)

	resp, err := http.Post(srv.URL+"/estimate", "application/json",
		strings.NewReader(`{"pairs": [[1,2],[1,1]], "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Pairs) != 2 {
		t.Fatalf("got %d pairs", len(body.Pairs))
	}
	if body.Pairs[0].T1 != 1 || body.Pairs[0].T2 != 2 {
		t.Errorf("pair echo wrong: %+v", body.Pairs[0])
	}
	for _, m := range Methods() {
		if _, ok := body.Pairs[0].Estimates[m]; !ok {
			t.Errorf("method %s missing", m)
		}
	}
	if body.APICalls == 0 || body.Samples == 0 || body.CacheHit {
		t.Errorf("first query accounting wrong: %+v", body)
	}

	// Same configuration again: served from cache, zero charge.
	resp2, err := http.Post(srv.URL+"/estimate", "application/json",
		strings.NewReader(`{"pairs": [[2,2]], "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body2 estimateResponse
	if err := json.NewDecoder(resp2.Body).Decode(&body2); err != nil {
		t.Fatal(err)
	}
	if !body2.CacheHit || body2.Charged != 0 {
		t.Errorf("second query should be a cache hit: %+v", body2)
	}
	if st := e.Stats(); st.Recordings != 1 || st.Queries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHTTPEstimateErrors(t *testing.T) {
	srv, _ := testServer(t)

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"no pairs", `{"pairs": []}`, http.StatusBadRequest},
		{"negative label", `{"pairs": [[-1,2]]}`, http.StatusBadRequest},
		{"budget too small", `{"pairs": [[1,2]], "seed": 99, "max_cost": 5}`, http.StatusPaymentRequired},
	} {
		resp, err := http.Post(srv.URL+"/estimate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	resp, err := http.Get(srv.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /estimate: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPMethodsAndHealth(t *testing.T) {
	srv, _ := testServer(t)

	resp, err := http.Get(srv.URL + "/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var methods map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&methods); err != nil {
		t.Fatal(err)
	}
	if len(methods["methods"]) != 5 {
		t.Errorf("methods = %v", methods)
	}

	// Drive one query so the counters move.
	r, err := http.Post(srv.URL+"/estimate", "application/json", strings.NewReader(`{"pairs": [[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var health healthResponse
	if err := json.NewDecoder(resp2.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Graphs != 1 {
		t.Errorf("health = %+v", health)
	}
	if health.Queries != 1 || health.Recordings != 1 || health.UpstreamCalls == 0 {
		t.Errorf("health counters = %+v", health)
	}
}

func TestHTTPPatchGraph(t *testing.T) {
	srv, e := testServer(t)
	g := e.Graph()
	// Pick a real edge to delete and a non-edge to add.
	u := graph.Node(0)
	for int(u) < g.NumNodes() && g.Degree(u) == 0 {
		u++
	}
	v := g.Neighbors(u)[0]
	var x, y graph.Node
	found := false
search:
	for x = 0; int(x) < g.NumNodes(); x++ {
		for y = x + 1; int(y) < g.NumNodes(); y++ {
			if !g.HasEdge(x, y) {
				found = true
				break search
			}
		}
	}
	if !found {
		t.Fatal("no non-edge in test graph")
	}

	body := fmt.Sprintf(`{"add": [[%d,%d]], "del": [[%d,%d]]}`, x, y, u, v)
	req, err := http.NewRequest(http.MethodPatch, srv.URL+"/graphs/g", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var patched patchGraphResponse
	if err := json.NewDecoder(resp.Body).Decode(&patched); err != nil {
		t.Fatal(err)
	}
	if patched.Version != g.Version()+1 || patched.Added != 1 || patched.Deleted != 1 {
		t.Errorf("patch response = %+v", patched)
	}
	if patched.Edges != g.NumEdges() {
		t.Errorf("1 add + 1 del changed edge count %d -> %d", g.NumEdges(), patched.Edges)
	}
	ng := e.Graph()
	if !ng.HasEdge(x, y) || ng.HasEdge(u, v) {
		t.Error("patch did not land in the served graph")
	}

	// An answer now reports the new version.
	r2, err := http.Post(srv.URL+"/estimate", "application/json", strings.NewReader(`{"pairs": [[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var ans estimateResponse
	if err := json.NewDecoder(r2.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	if ans.GraphVersion != patched.Version {
		t.Errorf("estimate reports graph_version %d, want %d", ans.GraphVersion, patched.Version)
	}

	// Error contract: unknown graph 404, empty delta 400, bad body 400.
	for _, tc := range []struct {
		target, body string
		status       int
	}{
		{"/graphs/nope", `{"add": [[0,1]]}`, http.StatusNotFound},
		{"/graphs/g", `{}`, http.StatusBadRequest},
		{"/graphs/g", `{"add": "x"}`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodPatch, srv.URL+tc.target, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("PATCH %s %s: status %d, want %d", tc.target, tc.body, resp.StatusCode, tc.status)
		}
	}
}

// oversizeEstimate is a POST /estimate body one byte over maxRequestBytes:
// valid JSON up to a padding string the decoder must read to its end.
func oversizeEstimate() string {
	const head, tail = `{"pairs": [[1,2]], "pad": "`, `"}`
	return head + strings.Repeat("x", maxRequestBytes+1-len(head)-len(tail)) + tail
}

// TestHTTPBodyLimit: estimate and admin bodies over their cap are refused
// with 413 and the {"error": ...} body, and nothing is answered.
func TestHTTPBodyLimit(t *testing.T) {
	srv, e := testServer(t)
	body := oversizeEstimate()
	if len(body) != maxRequestBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), maxRequestBytes+1)
	}
	for _, method := range []string{http.MethodPost, http.MethodPatch} {
		target := srv.URL + "/estimate"
		if method == http.MethodPatch {
			target = srv.URL + "/graphs/g"
		}
		req, err := http.NewRequest(method, target, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || out["error"] == "" {
			t.Errorf("%s %s: status %d, body %v (%v); want 413 with an error", method, target, resp.StatusCode, out, err)
		}
	}
	if st := e.Stats(); st.Queries != 0 || st.Deltas != 0 {
		t.Errorf("oversize bodies were served: %+v", st)
	}
}
