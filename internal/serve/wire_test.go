package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
)

// updateWire rewrites testdata/wire_estimate.golden:
//
//	go test ./internal/serve -run TestHTTPWireBytes -update-golden
var updateWire = flag.Bool("update-golden", false, "rewrite the wire golden file")

const wireGoldenPath = "testdata/wire_estimate.golden"

// The three /estimate bodies both wire tests send, in order: one pairs query
// at W=1, a W=2 batch of every kind and a W=1 batch.
const (
	wireSingleBody = `{"graph": "fb", "kind": "pairs", "pairs": [[1,2]], "seed": 1}`
	wireW2Body     = `{"graph": "fb", "walkers": 2, "seed": 2, "queries": [
		{"kind": "pairs", "pairs": [[1,2]]},
		{"kind": "size"},
		{"kind": "census", "top": 5},
		{"kind": "motif", "motif": "wedges", "pairs": [[1,2]]},
		{"kind": "motif", "motif": "triangles"},
		{"kind": "assortativity", "variant": "degree"},
		{"kind": "assortativity", "variant": "label"}]}`
	wireW1Body = `{"graph": "fb", "walkers": 1, "seed": 3, "queries": [
		{"kind": "size"}, {"kind": "motif", "motif": "wedges"}, {"kind": "assortativity"}]}`
)

// wireServer serves the facebook stand-in as graph "fb" over HTTP.
func wireServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := gen.Build(gen.StandIn("facebook"), 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkspace(t, WorkspaceConfig{}, "fb", g, GraphOptions{BurnIn: 50, Budget: 400})
	srv := httptest.NewServer(NewHandler(ws))
	t.Cleanup(srv.Close)
	return srv
}

// Wire key sets of the HTTP API, pinned by TestHTTPWireShape.
var (
	wireEnvelopeKeys = []string{"api_calls", "cache_hit", "charged", "graph_version", "kind",
		"samples", "shared_by", "stale_steps", "trajectory_key", "walkers"}
	wirePairRowKeys   = []string{"estimates", "t1", "t2"}
	wireCensusRowKeys = []string{"estimate", "hits", "t1", "t2"}
	wireCIKeys        = []string{"high", "low"}
	wireGraphRowKeys  = []string{"burn_in", "cache_hits", "cached_bytes", "cached_trajectories",
		"deltas", "edges", "graph_version", "imports", "name", "nodes", "queries", "recordings",
		"store_errors", "store_loads", "store_saves", "tasks_by_kind", "topup_saved_calls", "topups",
		"upstream_api_calls"}
	wireHealthKeys = []string{"cache_byte_budget", "cache_bytes_used", "cache_hits", "deltas",
		"graphs", "imports", "queries", "ready", "recordings", "status", "store_errors",
		"store_loads", "store_saves", "tasks_by_kind", "topup_saved_calls", "topups",
		"upstream_api_calls", "uptime_seconds"}
)

// TestHTTPWireShape pins the exact key set of every JSON object the serve
// API returns — the answer envelope, each kind's result and each row, the
// /graphs listing and /healthz — so a refactor of the response types cannot
// rename, drop or add a key unnoticed. Intervals appear only on multi-walker
// answers.
func TestHTTPWireShape(t *testing.T) {
	srv := wireServer(t)

	single := wireCall(t, http.MethodPost, srv.URL+"/estimate", wireSingleBody)
	wireKeys(t, "single answer", single, append([]string{"graph", "pairs"}, wireEnvelopeKeys...))
	checkPairRows(t, "single answer", single["pairs"])

	w2 := wireCall(t, http.MethodPost, srv.URL+"/estimate", wireW2Body)
	wireKeys(t, "W=2 batch", w2, []string{"answers", "graph"})
	answers := wireAnswers(t, "W=2 batch", w2, 7)
	wireKeys(t, "W=2 pairs", answers[0], append([]string{"pairs"}, wireEnvelopeKeys...))
	checkPairRows(t, "W=2 pairs", answers[0]["pairs"])
	wireKeys(t, "W=2 size", answers[1], append([]string{"size"}, wireEnvelopeKeys...))
	size := wireObject(t, "W=2 size", answers[1]["size"])
	wireKeys(t, "W=2 size result", size, []string{"collisions", "edges", "edges_ci", "mean_degree", "nodes", "nodes_ci"})
	wireKeys(t, "W=2 nodes_ci", wireObject(t, "nodes_ci", size["nodes_ci"]), wireCIKeys)
	wireKeys(t, "W=2 edges_ci", wireObject(t, "edges_ci", size["edges_ci"]), wireCIKeys)
	wireKeys(t, "W=2 census", answers[2], append([]string{"census"}, wireEnvelopeKeys...))
	census := wireArray(t, "W=2 census", answers[2]["census"])
	if len(census) == 0 || len(census) > 5 {
		t.Errorf("census top 5 returned %d rows", len(census))
	}
	for _, row := range census {
		wireKeys(t, "W=2 census row", wireObject(t, "census row", row), wireCensusRowKeys)
	}
	checkMotif(t, "W=2 wedges", answers[3], "wedges", []string{"ci", "estimate", "t1", "t2"})
	checkMotif(t, "W=2 triangles", answers[4], "triangles", []string{"ci", "estimate"})
	for i, variant := range []string{"degree", "label"} {
		ans := answers[5+i]
		wireKeys(t, "W=2 assortativity", ans, append([]string{"assortativity"}, wireEnvelopeKeys...))
		a := wireObject(t, "assortativity", ans["assortativity"])
		wireKeys(t, "W=2 assortativity result", a, []string{"ci", "coefficient", "skipped", "used", "variant"})
		wireKeys(t, "W=2 assortativity ci", wireObject(t, "ci", a["ci"]), wireCIKeys)
		if a["variant"] != variant {
			t.Errorf("assortativity variant %v, want %s", a["variant"], variant)
		}
	}

	w1 := wireCall(t, http.MethodPost, srv.URL+"/estimate", wireW1Body)
	wireKeys(t, "W=1 batch", w1, []string{"answers", "graph"})
	answers = wireAnswers(t, "W=1 batch", w1, 3)
	wireKeys(t, "W=1 size", answers[0], append([]string{"size"}, wireEnvelopeKeys...))
	wireKeys(t, "W=1 size result", wireObject(t, "size", answers[0]["size"]), []string{"collisions", "edges", "mean_degree", "nodes"})
	checkMotif(t, "W=1 wedges", answers[1], "wedges", []string{"estimate"})
	wireKeys(t, "W=1 assortativity", answers[2], append([]string{"assortativity"}, wireEnvelopeKeys...))
	wireKeys(t, "W=1 assortativity result", wireObject(t, "assortativity", answers[2]["assortativity"]),
		[]string{"coefficient", "skipped", "used", "variant"})

	graphs := wireCall(t, http.MethodGet, srv.URL+"/graphs", "")
	wireKeys(t, "/graphs", graphs, []string{"cache_byte_budget", "cache_bytes_used", "graphs"})
	rows := wireArray(t, "/graphs", graphs["graphs"])
	if len(rows) != 1 {
		t.Fatalf("/graphs lists %d graphs, want 1", len(rows))
	}
	wireKeys(t, "/graphs row", wireObject(t, "/graphs row", rows[0]), wireGraphRowKeys)

	wireKeys(t, "/healthz", wireCall(t, http.MethodGet, srv.URL+"/healthz", ""), wireHealthKeys)
}

// TestHTTPWireBytes pins the raw bodies of TestHTTPWireShape's three
// /estimate calls byte for byte: key order, number spelling and every value,
// which a key-set comparison lets through.
func TestHTTPWireBytes(t *testing.T) {
	srv := wireServer(t)
	var got bytes.Buffer
	for _, body := range []string{wireSingleBody, wireW2Body, wireW1Body} {
		got.Write(wireRaw(t, http.MethodPost, srv.URL+"/estimate", body))
	}
	if *updateWire {
		if err := os.WriteFile(wireGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("/estimate bodies differ from %s at line %d:\n got %.400s\nwant %.400s",
					wireGoldenPath, i+1, lineAt(gl, i), lineAt(wl, i))
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

// wireRaw sends one request and returns its 200 body.
func wireRaw(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d, body %s", method, url, resp.StatusCode, raw)
	}
	return raw
}

// wireCall sends one request and decodes its 200 body as a JSON object.
func wireCall(t *testing.T, method, url, body string) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(wireRaw(t, method, url, body), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// wireKeys fails unless obj carries exactly the want keys.
func wireKeys(t *testing.T, what string, obj map[string]any, want []string) {
	t.Helper()
	got := slices.Sorted(maps.Keys(obj))
	want = slices.Sorted(slices.Values(want))
	if !slices.Equal(got, want) {
		t.Errorf("%s keys:\n got %v\nwant %v", what, got, want)
	}
}

func wireObject(t *testing.T, what string, v any) map[string]any {
	t.Helper()
	obj, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("%s: want a JSON object, got %T %v", what, v, v)
	}
	return obj
}

func wireArray(t *testing.T, what string, v any) []any {
	t.Helper()
	arr, ok := v.([]any)
	if !ok {
		t.Fatalf("%s: want a JSON array, got %T %v", what, v, v)
	}
	return arr
}

// wireAnswers returns a batch body's n answers as objects.
func wireAnswers(t *testing.T, what string, batch map[string]any, n int) []map[string]any {
	t.Helper()
	arr := wireArray(t, what, batch["answers"])
	if len(arr) != n {
		t.Fatalf("%s: %d answers, want %d", what, len(arr), n)
	}
	out := make([]map[string]any, n)
	for i, a := range arr {
		out[i] = wireObject(t, what, a)
	}
	return out
}

// checkPairRows checks a "pairs" result: one (1,2) row with all methods.
func checkPairRows(t *testing.T, what string, v any) {
	t.Helper()
	rows := wireArray(t, what, v)
	if len(rows) != 1 {
		t.Fatalf("%s: %d pair rows, want 1", what, len(rows))
	}
	row := wireObject(t, what, rows[0])
	wireKeys(t, what+" pair row", row, wirePairRowKeys)
	wireKeys(t, what+" estimates", wireObject(t, "estimates", row["estimates"]), Methods())
}

// checkMotif checks a "motif" answer of the given shape with one row
// carrying exactly rowKeys.
func checkMotif(t *testing.T, what string, ans map[string]any, shape string, rowKeys []string) {
	t.Helper()
	wireKeys(t, what, ans, append([]string{"motif"}, wireEnvelopeKeys...))
	m := wireObject(t, what, ans["motif"])
	wireKeys(t, what+" result", m, []string{"rows", "shape"})
	if m["shape"] != shape {
		t.Errorf("%s: shape %v, want %s", what, m["shape"], shape)
	}
	rows := wireArray(t, what, m["rows"])
	if len(rows) != 1 {
		t.Fatalf("%s: %d rows, want 1", what, len(rows))
	}
	row := wireObject(t, what, rows[0])
	wireKeys(t, what+" row", row, rowKeys)
	if _, ok := row["ci"]; ok {
		wireKeys(t, what+" ci", wireObject(t, "ci", row["ci"]), wireCIKeys)
	}
}
