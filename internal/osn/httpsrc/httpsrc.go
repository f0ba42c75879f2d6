// Package httpsrc is the live-API backend: an osn.Source that answers
// neighbor, degree and label reads over a JSON HTTP API instead of an
// in-memory graph, with the robustness a metered crawl needs — bounded
// retries with exponential backoff and jitter, Retry-After-honoring 429/503
// handling, a client-side token-bucket rate limiter, per-request timeouts,
// context cancellation, and a persistent append-only .osnc response cache
// (cache.go) so an interrupted recording resumes without re-paying the
// upstream. The cached responses are registered on each new metering
// session via osn.Session.Prepay (see Client.PrimeSession), exactly like a
// trajectory top-up: a resumed recording is billed identically to an
// uninterrupted one, but its upstream fetch count for previously paid
// responses is zero.
//
// The upstream contract is four GET endpoints under one base URL:
//
//	GET {base}/meta           -> {"nodes": N, "edges": M}
//	GET {base}/neighbors/{id} -> {"neighbors": [id, ...]}
//	GET {base}/degree/{id}    -> {"degree": d}
//	GET {base}/labels/{id}    -> {"labels": [l, ...]}
//
// A friend list may come in any order (an API may list friends by recency,
// say). The client sorts each one before caching it, and sorts the lists it
// reads back from an .osnc, because osn.Source promises strictly increasing
// lists and the estimators' list merges rely on it. A list naming a node
// outside [0, N), the same friend twice or the node itself is malformed, and
// is retried like malformed JSON.
//
// The faultsim subpackage is the test double of that contract: an httptest
// upstream with scriptable fault schedules and a call/byte ledger, used by
// the fault-drill suite and reusable by any test that needs a misbehaving
// OSN API.
package httpsrc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/osn"
)

// Config describes a Client. BaseURL is required; every other field has a
// production-safe default.
type Config struct {
	// BaseURL is the upstream API root, e.g. "https://api.example.com/v1".
	// Required; must be an http or https URL with a host.
	BaseURL string
	// CachePath is the .osnc response cache file; "" keeps responses in
	// memory only (an interrupted recording then resumes nothing).
	CachePath string
	// Rate is the client-side sustained request rate in req/s (token
	// bucket); 0 means unlimited.
	Rate float64
	// Burst is the token-bucket capacity in requests; 0 means max(1, Rate).
	Burst float64
	// MaxRetries bounds how many times one request is retried after its
	// first attempt; 0 means 4. Use -1 for no retries.
	MaxRetries int
	// Timeout bounds each HTTP attempt; 0 means 10s.
	Timeout time.Duration
	// Backoff is the first retry's backoff; it doubles per attempt, with
	// jitter, up to MaxBackoff. 0 means 200ms.
	Backoff time.Duration
	// MaxBackoff caps the backoff growth; 0 means 5s.
	MaxBackoff time.Duration
	// Seed drives the backoff jitter.
	Seed int64
	// BaseContext cancels every in-flight and future request when done —
	// the shutdown signal; nil means context.Background().
	BaseContext context.Context
	// HTTPClient overrides the transport; nil uses a plain http.Client
	// (per-request deadlines come from Timeout, not the client).
	HTTPClient *http.Client
}

// Stats are a Client's monotonic counters; read them with Client.Stats.
type Stats struct {
	// UpstreamRequests counts HTTP requests issued, including retries.
	UpstreamRequests int64
	// Fetches counts logical upstream reads that succeeded (one per
	// neighbor/degree/label miss, however many attempts it took).
	Fetches int64
	// CacheHits counts reads served by the .osnc cache without any HTTP.
	CacheHits int64
	// Retries counts re-attempts after a retryable failure.
	Retries int64
	// Throttled counts 429/503 responses (the upstream shedding load).
	Throttled int64
	// LabelErrors counts label reads that failed terminally and returned
	// empty (the Source label surface is error-less, so these are the
	// silent failures an operator should watch).
	LabelErrors int64
}

// RetryBudgetError is the typed terminal failure of one upstream request:
// every attempt the retry budget allowed has failed. It wraps the last
// attempt's error.
type RetryBudgetError struct {
	// Endpoint is the failing request path, e.g. "neighbors/17".
	Endpoint string
	// Attempts is how many attempts were made.
	Attempts int
	// Last is the last attempt's error.
	Last error
}

// Error implements error.
func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("httpsrc: %s failed after %d attempts: %v", e.Endpoint, e.Attempts, e.Last)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *RetryBudgetError) Unwrap() error { return e.Last }

// StatusError is a non-retryable upstream HTTP status (4xx other than 429).
type StatusError struct {
	// Endpoint is the request path.
	Endpoint string
	// Status is the HTTP status code.
	Status int
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("httpsrc: %s: upstream returned %d", e.Endpoint, e.Status)
}

// Client is the HTTP-backed osn.Source. It is safe for concurrent use: a
// multi-walker fleet fans its fetches out over one Client, which serializes
// them through the token bucket and the shared response cache.
type Client struct {
	cfg   Config
	base  *url.URL
	http  *http.Client
	ctx   context.Context
	cache *Cache
	nodes int
	edges int64

	limiter *bucket

	jitterMu sync.Mutex
	jitter   *rand.Rand

	stats struct {
		requests, fetches, hits, retries, throttled, labelErrs atomic.Int64
	}
	// unhealthy is set while the most recent terminal outcome was a
	// failure; Healthy feeds replica /healthz readiness.
	unhealthy atomic.Bool
}

var (
	_ osn.Source        = (*Client)(nil)
	_ osn.SessionPrimer = (*Client)(nil)
)

// ValidateConfig checks the flag-level fields of cfg — the shared
// validation behind New and the serve/gateway CLI flags (exit 2 paths).
func ValidateConfig(cfg Config) error {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return fmt.Errorf("httpsrc: bad base URL %q: %v", cfg.BaseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("httpsrc: base URL %q must be http(s) with a host", cfg.BaseURL)
	}
	if cfg.Rate < 0 {
		return fmt.Errorf("httpsrc: rate must be non-negative, got %g", cfg.Rate)
	}
	if cfg.Burst < 0 {
		return fmt.Errorf("httpsrc: burst must be non-negative, got %g", cfg.Burst)
	}
	if cfg.MaxRetries < -1 {
		return fmt.Errorf("httpsrc: max retries must be >= -1, got %d", cfg.MaxRetries)
	}
	if cfg.Timeout < 0 {
		return fmt.Errorf("httpsrc: timeout must be non-negative, got %s", cfg.Timeout)
	}
	if cfg.Backoff < 0 || cfg.MaxBackoff < 0 {
		return fmt.Errorf("httpsrc: backoff durations must be non-negative")
	}
	return nil
}

// New builds a Client: it validates cfg, fetches the upstream /meta to learn
// |V| and |E| (the paper's assumption-(2) priors), and opens the response
// cache, verifying it was recorded against the same upstream size.
func New(cfg Config) (*Client, error) {
	if err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Burst == 0 && cfg.Rate > 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	base, _ := url.Parse(cfg.BaseURL)
	c := &Client{
		cfg:     cfg,
		base:    base,
		http:    cfg.HTTPClient,
		ctx:     cfg.BaseContext,
		limiter: newBucket(cfg.Rate, cfg.Burst),
		jitter:  rand.New(rand.NewSource(cfg.Seed)),
	}
	var meta struct {
		Nodes int   `json:"nodes"`
		Edges int64 `json:"edges"`
	}
	if err := c.get("meta", &meta); err != nil {
		return nil, fmt.Errorf("httpsrc: upstream meta: %w", err)
	}
	if meta.Nodes <= 0 {
		return nil, fmt.Errorf("httpsrc: upstream reports %d nodes; need a positive node count", meta.Nodes)
	}
	c.nodes, c.edges = meta.Nodes, meta.Edges
	cache, err := OpenCache(cfg.CachePath, meta.Nodes, meta.Edges)
	if err != nil {
		return nil, err
	}
	c.cache = cache
	return c, nil
}

// Close releases the response cache file.
func (c *Client) Close() error { return c.cache.Close() }

// Cache exposes the client's response cache (resume state, drop counters).
func (c *Client) Cache() *Cache { return c.cache }

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		UpstreamRequests: c.stats.requests.Load(),
		Fetches:          c.stats.fetches.Load(),
		CacheHits:        c.stats.hits.Load(),
		Retries:          c.stats.retries.Load(),
		Throttled:        c.stats.throttled.Load(),
		LabelErrors:      c.stats.labelErrs.Load(),
	}
}

// Healthy reports whether the client's most recent terminal upstream
// outcome succeeded (true until the first failure) — the signal a serve
// replica surfaces as /healthz readiness.
func (c *Client) Healthy() bool { return !c.unhealthy.Load() }

// PrimeSession implements osn.SessionPrimer: it registers every cached
// neighbor response on s via Prepay, so redeeming them is billed like a
// fresh fetch but costs the upstream nothing. Call before any metered
// fetches on s; the serving layer does this for each new recording session.
func (c *Client) PrimeSession(s *osn.Session) {
	s.Prepay(c.cache.NeighborResponses())
}

// NumNodes implements osn.Source.
func (c *Client) NumNodes() int { return c.nodes }

// NumEdges implements osn.Source.
func (c *Client) NumEdges() int64 { return c.edges }

// Neighbors implements osn.Source: cache first, then one retried upstream
// fetch whose response is appended to the cache before it is returned.
func (c *Client) Neighbors(u graph.Node) ([]graph.Node, error) {
	if adj, ok := c.cache.Neighbors(u); ok {
		c.stats.hits.Add(1)
		return adj, nil
	}
	resp := friendList{u: u, nodes: c.nodes}
	if err := c.get(fmt.Sprintf("neighbors/%d", u), &resp); err != nil {
		return nil, err
	}
	adj := resp.Neighbors
	if adj == nil {
		adj = []graph.Node{}
	}
	c.stats.fetches.Add(1)
	if err := c.cache.PutNeighbors(u, adj); err != nil {
		// A cache-append failure (disk full, file yanked) must not corrupt
		// the walk: the response itself is good, it just won't be resumable.
		return adj, nil
	}
	return adj, nil
}

// friendList is the /neighbors response for node u; nodes is |V|.
type friendList struct {
	Neighbors []graph.Node `json:"neighbors"`
	u         graph.Node
	nodes     int
}

// check sorts the list and refuses one that names a node outside the graph,
// the same friend twice, or u itself.
func (f *friendList) check() error {
	slices.Sort(f.Neighbors)
	for i, v := range f.Neighbors {
		switch {
		case v < 0 || int(v) >= f.nodes:
			return fmt.Errorf("friend %d of node %d is outside [0,%d)", v, f.u, f.nodes)
		case v == f.u:
			return fmt.Errorf("node %d lists itself as a friend", f.u)
		case i > 0 && v == f.Neighbors[i-1]:
			return fmt.Errorf("node %d lists friend %d twice", f.u, v)
		}
	}
	return nil
}

// Degree implements osn.Source, served from a cached friend list when one
// exists and from the upstream degree endpoint otherwise.
func (c *Client) Degree(u graph.Node) (int, error) {
	if adj, ok := c.cache.Neighbors(u); ok {
		c.stats.hits.Add(1)
		return len(adj), nil
	}
	var resp struct {
		Degree int `json:"degree"`
	}
	if err := c.get(fmt.Sprintf("degree/%d", u), &resp); err != nil {
		return 0, err
	}
	c.stats.fetches.Add(1)
	return resp.Degree, nil
}

// Labels implements osn.Source. The Source label surface is error-less
// (labels ride along free with a profile), so a terminal upstream failure
// here returns an empty set and bumps Stats.LabelErrors instead.
func (c *Client) Labels(u graph.Node) []graph.Label {
	if ls, ok := c.cache.Labels(u); ok {
		c.stats.hits.Add(1)
		return ls
	}
	var resp struct {
		Labels []graph.Label `json:"labels"`
	}
	if err := c.get(fmt.Sprintf("labels/%d", u), &resp); err != nil {
		c.stats.labelErrs.Add(1)
		return nil
	}
	ls := resp.Labels
	if ls == nil {
		ls = []graph.Label{}
	}
	c.stats.fetches.Add(1)
	_ = c.cache.PutLabels(u, ls)
	return ls
}

// HasLabel implements osn.Source.
func (c *Client) HasLabel(u graph.Node, l graph.Label) bool {
	for _, x := range c.Labels(u) {
		if x == l {
			return true
		}
	}
	return false
}

// RandomNode implements osn.Source: a uniform draw over the id space, like
// the in-memory GraphSource (real OSN adapters would override this with an
// API-specific sampler).
func (c *Client) RandomNode(rng *rand.Rand) graph.Node {
	return graph.Node(rng.Intn(c.nodes))
}

// get runs one logical GET under the client's base context.
func (c *Client) get(endpoint string, out any) error {
	return c.getCtx(c.ctx, endpoint, out)
}

// getCtx is the robust request loop: token-bucket admission, per-attempt
// timeout, bounded retries with exponential backoff + jitter, Retry-After
// on 429/503, and malformed-JSON tolerance. Terminal outcomes flip the
// health flag.
func (c *Client) getCtx(ctx context.Context, endpoint string, out any) error {
	attempts := c.cfg.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	var retryAfter time.Duration
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.stats.retries.Add(1)
			if err := c.sleep(ctx, c.backoff(a, retryAfter)); err != nil {
				return c.terminal(err)
			}
		}
		retryAfter = 0
		if err := c.limiter.wait(ctx); err != nil {
			return c.terminal(err)
		}
		var retryable bool
		lastErr, retryable, retryAfter = c.attempt(ctx, endpoint, out)
		if lastErr == nil {
			c.unhealthy.Store(false)
			return nil
		}
		if !retryable {
			return c.terminal(lastErr)
		}
	}
	return c.terminal(&RetryBudgetError{Endpoint: endpoint, Attempts: attempts, Last: lastErr})
}

// attempt issues one HTTP request. retryable marks failures worth another
// attempt (transport errors, 5xx, 429, malformed JSON, or a decoded out
// whose check method refuses it); retryAfter carries the upstream's
// Retry-After wish on 429/503.
func (c *Client) attempt(ctx context.Context, endpoint string, out any) (err error, retryable bool, retryAfter time.Duration) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base.JoinPath(endpoint).String(), nil)
	if err != nil {
		return err, false, 0
	}
	c.stats.requests.Add(1)
	resp, err := c.http.Do(req)
	if err != nil {
		// The base context ending is a shutdown, not a flaky upstream.
		if ctx.Err() != nil {
			return ctx.Err(), false, 0
		}
		return fmt.Errorf("httpsrc: %s: %w", endpoint, err), true, 0
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("httpsrc: %s: malformed response: %w", endpoint, err), true, 0
		}
		if v, ok := out.(interface{ check() error }); ok {
			if err := v.check(); err != nil {
				return fmt.Errorf("httpsrc: %s: malformed response: %w", endpoint, err), true, 0
			}
		}
		return nil, false, 0
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		c.stats.throttled.Add(1)
		return fmt.Errorf("httpsrc: %s: upstream returned %d", endpoint, resp.StatusCode),
			true, parseRetryAfter(resp.Header.Get("Retry-After"))
	case resp.StatusCode >= 500:
		return fmt.Errorf("httpsrc: %s: upstream returned %d", endpoint, resp.StatusCode), true, 0
	default:
		return &StatusError{Endpoint: endpoint, Status: resp.StatusCode}, false, 0
	}
}

// terminal records a terminal failure for the health signal and returns it.
func (c *Client) terminal(err error) error {
	if err != nil && !errors.Is(err, context.Canceled) {
		c.unhealthy.Store(true)
	}
	return err
}

// backoff computes the wait before retry attempt a (1-based): exponential
// growth with full jitter on the upper half, floored by the upstream's
// Retry-After when one was sent.
func (c *Client) backoff(a int, retryAfter time.Duration) time.Duration {
	d := c.cfg.Backoff << (a - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.jitterMu.Lock()
	d = d/2 + time.Duration(c.jitter.Int63n(int64(d/2)+1))
	c.jitterMu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// sleep waits d or until ctx ends.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads a Retry-After header: delta-seconds or HTTP-date.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// bucket is the client-side token-bucket rate limiter: capacity burst,
// refill rate tokens/s, one token per upstream request.
type bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// newBucket builds a full bucket; rate 0 disables limiting.
func newBucket(rate, burst float64) *bucket {
	return &bucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// wait blocks until a token is available or ctx ends.
func (b *bucket) wait(ctx context.Context) error {
	if b.rate <= 0 {
		return nil
	}
	for {
		b.mu.Lock()
		now := time.Now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
		if b.tokens >= 1 {
			b.tokens--
			b.mu.Unlock()
			return nil
		}
		need := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
		b.mu.Unlock()
		t := time.NewTimer(need)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		t.Stop()
	}
}
