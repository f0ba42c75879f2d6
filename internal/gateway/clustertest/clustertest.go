// Package clustertest is an in-process cluster harness for the gateway
// tier: K real serve replicas on httptest listeners, each with its own
// tempdir trajectory store and its own metered fake upstream source, fronted
// by a real gateway. Single-flight recording, .osnt replication, failover
// and budget accounting are all asserted against real HTTP and real files —
// there are no mocks, only small graphs.
//
// The central measurement is upstream spend: every replica's recordings run
// through a metered Upstream whose call counter only increments on true
// fetches (the walk session's cache absorbs repeats), so "the cluster spent
// the budget of one recording" is a number a test can read, not an
// inference.
package clustertest

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/serve"
	"repro/internal/store"
)

// BurnIn is the fixed walk burn-in every harness replica records with.
// Pinning it (instead of measuring mixing time per replica) keeps replica
// trajectories bit-identical, which the import identity checks require.
const BurnIn = 40

// Upstream is one replica's metered fake social network: it answers from an
// in-memory graph while counting every neighbor-list fetch — the priced
// operation in the paper's access model. Gate, when set, is invoked after
// each counted fetch; a gate that blocks simulates a replica dying
// mid-recording.
type Upstream struct {
	calls atomic.Int64

	mu    sync.RWMutex
	delay time.Duration
	gate  func(calls int64)
}

// Calls returns how many priced upstream fetches this replica has made.
func (u *Upstream) Calls() int64 { return u.calls.Load() }

// SetDelay makes every counted fetch cost d of wall clock, so recording is
// visibly more expensive than replay in QPS comparisons — the in-process
// stand-in for a crawl round-trip.
func (u *Upstream) SetDelay(d time.Duration) {
	u.mu.Lock()
	u.delay = d
	u.mu.Unlock()
}

// SetGate installs (or with nil clears) the fetch hook. The hook runs with
// the call already counted, so a gate that blocks at call N freezes the
// recording at exactly N spent calls.
func (u *Upstream) SetGate(gate func(calls int64)) {
	u.mu.Lock()
	u.gate = gate
	u.mu.Unlock()
}

// source adapts one graph snapshot to osn.Source, billing neighbor fetches
// to the upstream's meter. It is the serve.Config.SourceFactory the harness
// installs on every replica.
func (u *Upstream) source(g *graph.Graph) osn.Source {
	return &meteredSource{GraphSource: osn.NewGraphSource(g), up: u}
}

// meteredSource is Upstream's osn.Source: a GraphSource whose Neighbors
// charges the meter.
type meteredSource struct {
	osn.GraphSource
	up *Upstream
}

// Neighbors implements osn.Source, counting the fetch and running the gate.
func (m *meteredSource) Neighbors(n graph.Node) ([]graph.Node, error) {
	calls := m.up.calls.Add(1)
	m.up.mu.RLock()
	delay, gate := m.up.delay, m.up.gate
	m.up.mu.RUnlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if gate != nil {
		gate(calls)
	}
	return m.GraphSource.Neighbors(n)
}

// Replica is one serve process stand-in: a real Workspace over a real
// tempdir store behind a real HTTP listener, recording against its own
// metered upstream.
type Replica struct {
	// Workspace is the replica's serving state.
	Workspace *serve.Workspace
	// Upstream meters the replica's recording spend.
	Upstream *Upstream
	// Server is the replica's HTTP front; URL is its base address.
	Server *httptest.Server
	// StoreDir is the replica's .osnt store root on disk.
	StoreDir string
}

// URL returns the replica's base address.
func (r *Replica) URL() string { return r.Server.URL }

// Kill severs the replica's listener and every open connection, so
// in-flight and future requests fail with transport errors — the harness's
// stand-in for a crashed process. The workspace and store survive; see
// Cluster addressing for rejoin scenarios.
func (r *Replica) Kill() {
	r.Server.Listener.Close()
	r.Server.CloseClientConnections()
}

// TestGraph builds the small labeled graph the harness serves: a
// Barabási–Albert graph with gender labels, restricted to its largest
// component so walks mix.
func TestGraph(t testing.TB, seed int64) *graph.Graph {
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

// NewReplica builds one harness replica serving g under graphName. Every
// replica of a cluster shares the same *graph.Graph, so graph versions and
// content fingerprints agree and .osnt files replicate across them.
func NewReplica(t testing.TB, graphName string, g *graph.Graph) *Replica {
	t.Helper()
	dir := t.TempDir()
	st, err := store.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	up := &Upstream{}
	ws, err := serve.NewWorkspace(serve.WorkspaceConfig{
		Store: st,
		Defaults: serve.GraphOptions{
			BurnIn:        BurnIn,
			SourceFactory: up.source,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws.ExpectGraphs(1)
	if _, err := ws.AddGraph(graphName, g, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(ws))
	t.Cleanup(srv.Close)
	return &Replica{Workspace: ws, Upstream: up, Server: srv, StoreDir: dir}
}

// Cluster is K harness replicas behind one gateway.
type Cluster struct {
	// GraphName is the workspace name every replica serves the graph under.
	GraphName string
	// Graph is the shared served graph.
	Graph *graph.Graph
	// Replicas are the backends, in ring-configuration order.
	Replicas []*Replica
	// Gateway is the routing tier under test.
	Gateway *gateway.Gateway
	// Front is the gateway's HTTP listener; requests go to Front.URL.
	Front *httptest.Server
}

// NewCluster builds k replicas serving g under graphName behind a gateway
// with the given extra configuration applied (Replicas is always the
// harness's own list).
func NewCluster(t testing.TB, k int, graphName string, g *graph.Graph, cfg gateway.Config) *Cluster {
	t.Helper()
	c := &Cluster{GraphName: graphName, Graph: g}
	urls := make([]string, 0, k)
	for i := 0; i < k; i++ {
		r := NewReplica(t, graphName, g)
		c.Replicas = append(c.Replicas, r)
		urls = append(urls, r.URL())
	}
	cfg.Replicas = urls
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Gateway = gw
	c.Front = httptest.NewServer(gw.Handler())
	t.Cleanup(c.Front.Close)
	return c
}

// TotalUpstream sums the priced upstream calls across every replica — the
// cluster's whole API spend.
func (c *Cluster) TotalUpstream() int64 {
	var total int64
	for _, r := range c.Replicas {
		total += r.Upstream.Calls()
	}
	return total
}

// EstimateRequest is the wire request Estimate posts; zero fields are
// omitted so replicas resolve their own defaults.
type EstimateRequest struct {
	Graph   string   `json:"graph,omitempty"`   // workspace graph name
	Pairs   [][2]int `json:"pairs,omitempty"`   // label pairs to estimate
	Kind    string   `json:"kind,omitempty"`    // task kind ("" = pairs)
	Budget  int      `json:"budget,omitempty"`  // API-call budget per trajectory
	Walkers int      `json:"walkers,omitempty"` // concurrent walkers per recording
	Seed    int64    `json:"seed,omitempty"`    // recording seed (part of the key)
	Tenant  string   `json:"-"`                 // sent as the X-Tenant header, not in the body
}

// EstimateAnswer is the slice of the estimate response the harness tests
// read.
type EstimateAnswer struct {
	// Status is the HTTP status the request came back with.
	Status int `json:"-"`
	// Pairs carries the per-pair estimates by method name.
	Pairs    []serve.PairAnswer `json:"pairs"`
	Error    string             `json:"error"`     // error body on non-2xx answers
	APICalls int64              `json:"api_calls"` // upstream calls billed to this answer
	Charged  int64              `json:"charged"`   // priced subset of APICalls
	// CacheHit reports the answer replayed a finished trajectory.
	CacheHit      bool   `json:"cache_hit"`
	GraphVersion  uint64 `json:"graph_version"`  // graph version the answer was computed on
	TrajectoryKey string `json:"trajectory_key"` // .osnt key backing the answer
	RetryAfter    string `json:"-"`              // Retry-After header on 429 answers
}

// Estimate posts one estimate request to base (a gateway or replica URL)
// and decodes the answer; non-2xx statuses are returned, not fatal, so
// tests can assert on 429/502 paths.
func Estimate(t testing.TB, base string, req EstimateRequest) *EstimateAnswer {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if req.Tenant != "" {
		hr.Header.Set("X-Tenant", req.Tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("POST %s/estimate: %v", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ans := &EstimateAnswer{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
	if err := json.Unmarshal(raw, ans); err != nil {
		t.Fatalf("bad estimate body (status %d): %v: %s", resp.StatusCode, err, raw)
	}
	return ans
}

// Patch applies an edge delta through base's PATCH /graphs/{name} endpoint
// and returns the HTTP status plus the new graph version (0 on failure).
func Patch(t testing.TB, base, graphName string, add [][2]int) (int, uint64) {
	t.Helper()
	body, err := json.Marshal(map[string][][2]int{"add": add})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, base+"/graphs/"+graphName, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PATCH %s/graphs/%s: %v", base, graphName, err)
	}
	defer resp.Body.Close()
	var out struct {
		Version uint64 `json:"graph_version"`
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &out)
	return resp.StatusCode, out.Version
}

// FreeEdge finds a node pair not currently adjacent in g, for tests that
// need a valid edge addition.
func FreeEdge(t testing.TB, g *graph.Graph) [2]int {
	t.Helper()
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 2; v < g.NumNodes(); v += 17 {
			adjacent := false
			for _, n := range g.Neighbors(graph.Node(u)) {
				if n == graph.Node(v) {
					adjacent = true
					break
				}
			}
			if !adjacent {
				return [2]int{u, v}
			}
		}
	}
	t.Fatal("no free edge in graph")
	return [2]int{}
}

// WaitListening polls until addr accepts TCP connections, for restart
// scenarios.
func WaitListening(t testing.TB, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 50*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s not listening after %s", addr, timeout)
}

// SoloSpend records the harness query once on a standalone replica and
// returns the upstream calls one full recording costs — the yardstick the
// cluster's total spend is compared against.
func SoloSpend(t testing.TB, graphName string, g *graph.Graph, req EstimateRequest) int64 {
	t.Helper()
	r := NewReplica(t, graphName, g)
	ans := Estimate(t, r.URL(), req)
	if ans.Status != http.StatusOK {
		t.Fatalf("solo recording failed: status %d, error %q", ans.Status, ans.Error)
	}
	return r.Upstream.Calls()
}
