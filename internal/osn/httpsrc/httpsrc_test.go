package httpsrc

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/osn/httpsrc/faultsim"
)

// apiGraph builds the small labeled fixture the client tests crawl: a
// 60-node ring with chords, labels 0/1/2 by residue, node 0 unlabeled.
func apiGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 60
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(graph.Node(i), graph.Node((i+1)%n)); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(graph.Node(i), graph.Node((i+7)%n)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := b.SetLabels(graph.Node(i), graph.Label(i%3)); err != nil {
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

// fastCfg is a Config tuned for tests: tiny backoffs, short timeouts.
func fastCfg(url string) Config {
	return Config{
		BaseURL: url,
		Backoff: time.Millisecond,
		Timeout: 2 * time.Second,
	}
}

func TestClientServesGraph(t *testing.T) {
	g := apiGraph(t)
	up := faultsim.New(g)
	defer up.Close()
	c, err := New(fastCfg(up.URL()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("meta %d/%d, want %d/%d", c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		adj, err := c.Neighbors(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(adj, g.Neighbors(u)) {
			t.Fatalf("node %d: neighbors %v, want %v", u, adj, g.Neighbors(u))
		}
		d, err := c.Degree(u)
		if err != nil {
			t.Fatal(err)
		}
		if d != g.Degree(u) {
			t.Fatalf("node %d: degree %d, want %d", u, d, g.Degree(u))
		}
		if got, want := c.Labels(u), g.Labels(u); len(got) != len(want) {
			t.Fatalf("node %d: labels %v, want %v", u, got, want)
		}
		if int(u) > 0 && !c.HasLabel(u, graph.Label(int(u)%3)) {
			t.Fatalf("node %d: HasLabel(%d) false", u, int(u)%3)
		}
	}
	if !c.Healthy() {
		t.Error("healthy upstream, unhealthy client")
	}
}

func TestClientCacheAvoidsUpstream(t *testing.T) {
	g := apiGraph(t)
	up := faultsim.New(g)
	defer up.Close()
	c, err := New(fastCfg(up.URL()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Neighbors(5); err != nil {
		t.Fatal(err)
	}
	before := up.Ledger()
	for i := 0; i < 10; i++ {
		if _, err := c.Neighbors(5); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Degree(5); err != nil {
			t.Fatal(err)
		}
	}
	after := up.Ledger()
	if after.Neighbors != before.Neighbors || after.Degree != before.Degree {
		t.Errorf("cached reads hit the upstream: %+v -> %+v", before, after)
	}
	if s := c.Stats(); s.CacheHits < 20 {
		t.Errorf("CacheHits %d, want >= 20", s.CacheHits)
	}
}

// reverseFriends lists friends in descending order, as an upstream that
// lists them by recency might.
func reverseFriends(_ graph.Node, adj []graph.Node) []graph.Node {
	slices.Reverse(adj)
	return adj
}

// TestClientFaultTable is the table-driven fault matrix: each row scripts
// one upstream misbehavior and pins the client's reaction.
func TestClientFaultTable(t *testing.T) {
	g := apiGraph(t)
	failFirst := func(n int64, f faultsim.Fault) faultsim.Schedule {
		return func(call int64, endpoint string, node graph.Node) *faultsim.Fault {
			if endpoint == "neighbors" && call <= n+1 { // +1: call 1 is /meta
				return &f
			}
			return nil
		}
	}
	cases := []struct {
		name     string
		schedule faultsim.Schedule
		tune     func(*Config)
		wantErr  func(t *testing.T, err error)
		// wantRetries bounds Stats.Retries after the single Neighbors call.
		minRetries int64
	}{
		{
			name:       "5xx run then recovery",
			schedule:   failFirst(2, faultsim.Fault{Status: 500}),
			minRetries: 2,
		},
		{
			name:       "429 burst then recovery",
			schedule:   failFirst(2, faultsim.Fault{Status: 429, RetryAfter: 10 * time.Millisecond}),
			minRetries: 2,
		},
		{
			name:       "503 with Retry-After then recovery",
			schedule:   failFirst(1, faultsim.Fault{Status: 503, RetryAfter: 10 * time.Millisecond}),
			minRetries: 1,
		},
		{
			name:     "connection reset then recovery",
			schedule: failFirst(1, faultsim.Fault{Reset: true}),
			tune: func(c *Config) {
				// Fresh connection per request: a reset on a reused keep-alive
				// conn is absorbed by net/http's own idempotent-GET retry and
				// would never reach the client's retry loop.
				c.HTTPClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			},
			minRetries: 1,
		},
		{
			name:       "malformed JSON then recovery",
			schedule:   failFirst(2, faultsim.Fault{Malformed: true}),
			minRetries: 2,
		},
		{
			name:     "friends listed in reverse are sorted, not retried",
			schedule: failFirst(1000, faultsim.Fault{Friends: reverseFriends}),
		},
		{
			name: "repeated friend then recovery",
			schedule: failFirst(1, faultsim.Fault{Friends: func(_ graph.Node, adj []graph.Node) []graph.Node {
				return append(adj, adj[0])
			}}),
			minRetries: 1,
		},
		{
			name: "node listed as its own friend then recovery",
			schedule: failFirst(1, faultsim.Fault{Friends: func(u graph.Node, adj []graph.Node) []graph.Node {
				return append(adj, u)
			}}),
			minRetries: 1,
		},
		{
			name: "friend outside the graph then recovery",
			schedule: failFirst(1, faultsim.Fault{Friends: func(_ graph.Node, adj []graph.Node) []graph.Node {
				return append(adj, 1<<20)
			}}),
			minRetries: 1,
		},
		{
			name:       "hang past deadline then recovery",
			schedule:   failFirst(1, faultsim.Fault{Hang: 5 * time.Second}),
			tune:       func(c *Config) { c.Timeout = 50 * time.Millisecond },
			minRetries: 1,
		},
		{
			name:     "retry budget exhaustion is typed",
			schedule: failFirst(1000, faultsim.Fault{Status: 500}),
			tune:     func(c *Config) { c.MaxRetries = 2 },
			wantErr: func(t *testing.T, err error) {
				var rbe *RetryBudgetError
				if !errors.As(err, &rbe) {
					t.Fatalf("want *RetryBudgetError, got %T: %v", err, err)
				}
				if rbe.Attempts != 3 {
					t.Errorf("attempts %d, want 3 (1 + MaxRetries)", rbe.Attempts)
				}
			},
		},
		{
			name: "permanent 4xx is not retried",
			schedule: func(call int64, endpoint string, node graph.Node) *faultsim.Fault {
				if endpoint == "neighbors" {
					return &faultsim.Fault{Status: 403}
				}
				return nil
			},
			wantErr: func(t *testing.T, err error) {
				var se *StatusError
				if !errors.As(err, &se) || se.Status != 403 {
					t.Fatalf("want *StatusError(403), got %T: %v", err, err)
				}
			},
			minRetries: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up := faultsim.New(g)
			defer up.Close()
			cfg := fastCfg(up.URL())
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			up.SetSchedule(tc.schedule)
			adj, err := c.Neighbors(3)
			if tc.wantErr != nil {
				if err == nil {
					t.Fatal("want an error, got a response")
				}
				tc.wantErr(t, err)
				if c.Healthy() {
					t.Error("terminal failure left the client healthy")
				}
				// Recovery flips health back.
				up.SetSchedule(nil)
				if _, err := c.Neighbors(4); err != nil {
					t.Fatalf("post-recovery fetch: %v", err)
				}
				if !c.Healthy() {
					t.Error("successful fetch left the client unhealthy")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(adj, g.Neighbors(3)) {
				t.Errorf("recovered response %v, want %v", adj, g.Neighbors(3))
			}
			if s := c.Stats(); s.Retries < tc.minRetries {
				t.Errorf("retries %d, want >= %d", s.Retries, tc.minRetries)
			}
			if tc.minRetries == 0 {
				if s := c.Stats(); s.Retries != 0 {
					t.Errorf("retries %d, want 0", s.Retries)
				}
			}
			if !c.Healthy() {
				t.Error("recovered fetch left the client unhealthy")
			}
		})
	}
}

// TestClientRateLimiter: the token bucket paces sustained upstream fetches
// at the configured rate.
func TestClientRateLimiter(t *testing.T) {
	g := apiGraph(t)
	up := faultsim.New(g)
	defer up.Close()
	cfg := fastCfg(up.URL())
	cfg.Rate = 100
	cfg.Burst = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	for u := graph.Node(0); u < 8; u++ {
		if _, err := c.Neighbors(u); err != nil {
			t.Fatal(err)
		}
	}
	// 8 fetches at 100/s with burst 1: at least ~70ms of pacing (the meta
	// call during New already spent the initial token).
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Errorf("8 rate-limited fetches took %s, want >= 70ms of pacing", elapsed)
	}
	// Cached reads are not rate-limited.
	start = time.Now()
	for i := 0; i < 100; i++ {
		if _, err := c.Neighbors(3); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("100 cached reads took %s; cache hits must skip the limiter", elapsed)
	}
}

// TestClientConcurrent drives overlapping fetches from many goroutines —
// the fleet access pattern the Source contract requires — under -race.
func TestClientConcurrent(t *testing.T) {
	g := apiGraph(t)
	up := faultsim.New(g)
	defer up.Close()
	path := t.TempDir() + "/conc.osnc"
	cfg := fastCfg(up.URL())
	cfg.CachePath = path
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				u := graph.Node((i + w*3) % g.NumNodes())
				adj, err := c.Neighbors(u)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(adj, g.Neighbors(u)) {
					errs <- errors.New("wrong neighbors under concurrency")
					return
				}
				c.Labels(u)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Cache().Len() != g.NumNodes() {
		t.Errorf("cache holds %d responses, want %d", c.Cache().Len(), g.NumNodes())
	}
}

// TestClientBaseContextCancel: cancelling the base context unblocks an
// in-flight hung request promptly — the shutdown path.
func TestClientBaseContextCancel(t *testing.T) {
	g := apiGraph(t)
	up := faultsim.New(g)
	defer up.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := fastCfg(up.URL())
	cfg.BaseContext = ctx
	cfg.Timeout = 30 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	up.SetSchedule(func(call int64, endpoint string, node graph.Node) *faultsim.Fault {
		return &faultsim.Fault{Hang: 30 * time.Second}
	})
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Neighbors(1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled fetch returned a response")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %s to unblock the fetch", elapsed)
	}
}

func TestValidateConfig(t *testing.T) {
	bad := []Config{
		{BaseURL: "not a url://"},
		{BaseURL: "ftp://host/api"},
		{BaseURL: "http://"},
		{BaseURL: "http://x", Rate: -1},
		{BaseURL: "http://x", Burst: -2},
		{BaseURL: "http://x", MaxRetries: -5},
		{BaseURL: "http://x", Timeout: -time.Second},
		{BaseURL: "http://x", Backoff: -time.Second},
	}
	for i, cfg := range bad {
		if err := ValidateConfig(cfg); err == nil {
			t.Errorf("config %d (%+v) validated", i, cfg)
		}
	}
	if err := ValidateConfig(Config{BaseURL: "https://api.example.com/v1", Rate: 10}); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}
