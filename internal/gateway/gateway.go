// Package gateway is the sharded front tier over a fleet of serve replicas.
// Trajectories — not queries — are the expensive artifact in this system
// (every recorded step spends a metered upstream API call), so the gateway's
// job is to make N replicas spend like one: it consistent-hash routes each
// trajectory key (graph, budget, walkers, seed) to one owning replica, holds
// concurrent requests for a cold key in a single-flight table while exactly
// one recording happens, and, when ring changes move a key's ownership,
// ships the finished .osnt bytes from the old holder to the new owner over
// the replicas' trajectory endpoints instead of re-recording. The receiving
// replica re-verifies the bytes (CRC, graph version, content fingerprint,
// burn-in) before admitting them, so a corrupted pull degrades to a
// re-record, never to a wrong answer.
//
// The gateway also applies edge admission control (per-tenant token-bucket
// quotas answered with 429 + Retry-After), probes replica /healthz for the
// ready signal, evicts failing replicas from the ring and rejoins them when
// they recover, and reports routing/pull/quota counters on its own /healthz.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes a Gateway.
type Config struct {
	// Replicas are the base URLs of the serve replicas to route across
	// (e.g. "http://10.0.0.1:8080"). At least one is required.
	Replicas []string
	// VNodes is the virtual-node count per replica on the hash ring; more
	// vnodes spread keys more evenly at slightly more memory. 0 means 64.
	VNodes int
	// ProbeInterval is how often the background prober checks replica
	// /healthz; 0 disables background probing (the proxy still evicts on
	// transport errors, and ProbeOnce can be driven manually).
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive probe failures evict a replica
	// from the ring; 0 means 2. Transport errors during proxying evict
	// immediately regardless.
	ProbeFailures int
	// QuotaRate is each tenant's sustained request budget in requests per
	// second; 0 disables admission control.
	QuotaRate float64
	// QuotaBurst is each tenant's bucket capacity — how many requests may
	// arrive back to back before the rate limit binds. 0 means QuotaRate.
	QuotaBurst float64
	// TenantHeader is the request header naming the tenant for quota
	// accounting; "" means "X-Tenant". Requests without the header share
	// the "anonymous" bucket.
	TenantHeader string
	// Client issues every backend request; nil means a client with a 30s
	// timeout.
	Client *http.Client

	// now is a test hook for the quota clock; nil means time.Now.
	now func() time.Time
}

// flight is one trajectory key's single-flight record. While the recording
// is in flight, done is open and concurrent requests park on it; when it
// closes, either err is set (the flight failed and was removed — waiters
// retry) or holder names the replica with the finished trajectory, which
// later requests migrate from when ring ownership moves.
type flight struct {
	done chan struct{}

	// Written once before done closes, read freely after.
	err           error
	holder        string
	graph         string
	trajectoryKey string

	// pullMu serializes .osnt migrations of this key, so a herd arriving
	// after an ownership change performs one pull, not one per request.
	pullMu sync.Mutex
}

// Stats are the gateway's routing counters, as surfaced on /healthz.
type Stats struct {
	// Routed counts proxied estimate requests (after admission control).
	Routed int64 `json:"routed"`
	// Parked counts requests that waited on another request's in-flight
	// recording instead of triggering their own.
	Parked int64 `json:"parked"`
	// Pulls counts .osnt trajectories shipped between replicas after ring
	// changes.
	Pulls int64 `json:"pulls"`
	// PullErrors counts shipments that failed or were rejected by the
	// receiving replica's verification (each falls back to re-record).
	PullErrors int64 `json:"pull_errors"`
	// Retries counts estimate attempts re-routed after a replica transport
	// error.
	Retries int64 `json:"retries"`
	// QuotaRejected counts requests refused with 429.
	QuotaRejected int64 `json:"quota_rejected"`
	// Evictions counts down transitions on the ring; Rejoins counts the
	// recoveries.
	Evictions int64 `json:"evictions"`
	// Rejoins counts replicas restored to the ring after recovery.
	Rejoins int64 `json:"rejoins"`
	// Flights is the current single-flight table size (completed keys
	// included — the table doubles as the key-location memo, capped at
	// maxFlights).
	Flights int `json:"flights"`
}

// Gateway routes estimate traffic across serve replicas with single-flight
// recording and .osnt migration. Build one with New, expose it with
// Handler, and start background health probing with Start. All methods are
// safe for concurrent use.
type Gateway struct {
	cfg    Config
	client *http.Client
	ring   *ring
	quotas *quotas

	mu      sync.Mutex
	flights map[string]*flight

	routed, parked, pulls, pullErrors, retries, quotaRejected, evictions, rejoins atomic.Int64
}

// New validates cfg and builds a Gateway. Replicas must be non-empty; every
// URL must carry an http or https scheme and a host.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	seen := make(map[string]bool)
	for _, u := range cfg.Replicas {
		if err := validateReplicaURL(u); err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("gateway: duplicate replica %q", u)
		}
		seen[u] = true
	}
	if cfg.VNodes < 0 {
		return nil, fmt.Errorf("gateway: negative vnodes %d", cfg.VNodes)
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = 64
	}
	if cfg.ProbeFailures < 0 {
		return nil, fmt.Errorf("gateway: negative probe-failure threshold %d", cfg.ProbeFailures)
	}
	if cfg.ProbeFailures == 0 {
		cfg.ProbeFailures = 2
	}
	if cfg.QuotaRate < 0 || cfg.QuotaBurst < 0 {
		return nil, fmt.Errorf("gateway: negative quota rate or burst")
	}
	if cfg.QuotaBurst == 0 {
		cfg.QuotaBurst = cfg.QuotaRate
	}
	if cfg.TenantHeader == "" {
		cfg.TenantHeader = "X-Tenant"
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Gateway{
		cfg:     cfg,
		client:  cfg.Client,
		ring:    newRing(cfg.Replicas, cfg.VNodes),
		quotas:  newQuotas(cfg.QuotaRate, cfg.QuotaBurst, cfg.now),
		flights: make(map[string]*flight),
	}, nil
}

// validateReplicaURL checks one replica base URL well enough to produce an
// actionable CLI error: scheme http/https, non-empty host.
func validateReplicaURL(u string) error {
	rest, ok := strings.CutPrefix(u, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(u, "https://")
	}
	if !ok {
		return fmt.Errorf("gateway: replica %q: want an http:// or https:// base URL", u)
	}
	if rest == "" || strings.HasPrefix(rest, "/") {
		return fmt.Errorf("gateway: replica %q has no host", u)
	}
	return nil
}

// Stats snapshots the gateway's routing counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	nflights := len(g.flights)
	g.mu.Unlock()
	return Stats{
		Routed:        g.routed.Load(),
		Parked:        g.parked.Load(),
		Pulls:         g.pulls.Load(),
		PullErrors:    g.pullErrors.Load(),
		Retries:       g.retries.Load(),
		QuotaRejected: g.quotaRejected.Load(),
		Evictions:     g.evictions.Load(),
		Rejoins:       g.rejoins.Load(),
		Flights:       nflights,
	}
}

// Replicas snapshots every replica's health row, in configuration order.
func (g *Gateway) Replicas() []ReplicaStatus { return g.ring.status() }

// MarkDown evicts the replica at url from the ring, as a proxy transport
// error would; exported for deterministic failover tests and operational
// tooling.
func (g *Gateway) MarkDown(url, reason string) {
	if g.ring.markDown(url, reason) {
		g.evictions.Add(1)
	}
}

// MarkUp rejoins the replica at url, as a successful probe would.
func (g *Gateway) MarkUp(url string) {
	if g.ring.markUp(url) {
		g.rejoins.Add(1)
	}
}

// estimateMeta is the slice of the estimate body the gateway reads: just
// enough to compute the trajectory key it routes and single-flights on.
// The body is forwarded verbatim; the replica does full validation.
type estimateMeta struct {
	Graph   string `json:"graph"`
	Budget  int    `json:"budget"`
	Walkers int    `json:"walkers"`
	Seed    int64  `json:"seed"`
	Queries []struct {
		Graph string `json:"graph"`
	} `json:"queries"`
}

// flightKey renders the routing key for an estimate request. The gateway
// keys on the wire spelling of (graph, budget, walkers, seed): it cannot
// resolve per-graph engine defaults, so a request spelling a default
// explicitly may route to a different replica than one omitting it — a
// routing (and at worst one extra recording) inefficiency, never a
// correctness issue, since each replica resolves and caches keys itself.
func flightKey(m estimateMeta) string {
	return fmt.Sprintf("%s|b%d_w%d_s%d", m.Graph, m.Budget, m.Walkers, m.Seed)
}

// graphName resolves the graph the request addresses: the top-level name or
// the first named query in a batch ("" when the workspaces serve a single
// unnamed graph — migration is then skipped, see migrate).
func (m estimateMeta) graphName() string {
	if m.Graph != "" {
		return m.Graph
	}
	for _, q := range m.Queries {
		if q.Graph != "" {
			return q.Graph
		}
	}
	return ""
}

// maxFlights caps the single-flight table. Completed flights stay in it as
// their keys' location memo, so without a cap it gains one entry per
// distinct key ever routed, and traffic that asks a never-seen seed per
// request grows it without bound. An entry measured about 320 bytes
// (go1.24, amd64), so a full table holds about 21 MB; a key set smaller
// than the cap keeps its memo whole. Past the cap, claim drops every
// completed entry. A key whose entry was dropped routes as a fresh flight
// to its current owner, which answers it from its cache or store or
// records it; the memo only spares a re-recording after ring ownership
// moves. It is a variable only so tests can lower it.
var maxFlights = 1 << 16

// claim resolves key's flight: the caller either becomes the recorder
// (creator=true, a fresh flight it MUST complete or fail), joins a finished
// flight (creator=false), or — having parked on an in-flight recording that
// failed — loops to take over. A nil flight means ctx ended while parked.
func (g *Gateway) claim(ctx context.Context, key string) (f *flight, creator bool) {
	for {
		g.mu.Lock()
		f = g.flights[key]
		if f == nil {
			if len(g.flights) >= maxFlights {
				g.dropCompletedLocked()
			}
			f = &flight{done: make(chan struct{})}
			g.flights[key] = f
			g.mu.Unlock()
			return f, true
		}
		g.mu.Unlock()
		select {
		case <-f.done:
		default:
			g.parked.Add(1)
		}
		select {
		case <-f.done:
			if f.err != nil {
				continue // failed and removed; take over
			}
			return f, false
		case <-ctx.Done():
			return nil, false
		}
	}
}

// completeFlight publishes a successful recording: holder has the finished
// trajectory under trajectoryKey. The flight stays in the table as the key's
// location memo until the table passes maxFlights.
func (g *Gateway) completeFlight(f *flight, holder, graph, trajectoryKey string) {
	f.holder = holder
	f.graph = graph
	f.trajectoryKey = trajectoryKey
	close(f.done)
}

// dropCompletedLocked empties the table of completed flights. In-flight
// entries stay, because parked requests hold them.
func (g *Gateway) dropCompletedLocked() {
	for key, f := range g.flights {
		select {
		case <-f.done:
			delete(g.flights, key)
		default:
		}
	}
}

// failFlight retracts a flight whose recording did not finish (transport
// error, non-2xx): it leaves the table so a parked waiter can take over.
func (g *Gateway) failFlight(key string, f *flight, err error) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.err = err
	close(f.done)
}

// migrate picks the replica to serve a completed flight from. When ring
// ownership has moved off the holder, it ships the .osnt (pull from holder,
// push to owner) so the owner serves it as a verified cache hit; any
// failure — dead holder, rejected bytes — falls back to the owner
// re-recording. Returns the target replica URL, or "" when no replica is
// alive.
func (g *Gateway) migrate(ctx context.Context, key string, f *flight) string {
	owner := g.ring.owner(key)
	if owner == "" {
		return ""
	}
	f.pullMu.Lock()
	defer f.pullMu.Unlock()
	if f.holder == owner {
		return owner
	}
	// An unnamed graph cannot be addressed on the trajectory endpoints;
	// the owner simply re-records (deterministically, to the same bytes).
	if f.graph == "" || f.trajectoryKey == "" {
		f.holder = owner
		return owner
	}
	if err := g.shipTrajectory(ctx, f.holder, owner, f.graph, f.trajectoryKey); err != nil {
		g.pullErrors.Add(1)
	} else {
		g.pulls.Add(1)
	}
	// Either way the owner is now the authority: on success it has the
	// bytes; on failure it re-records them.
	f.holder = owner
	return owner
}

// shipTrajectory copies one .osnt between replicas: GET from, PUT to. The
// receiving replica re-verifies the bytes before admitting them, so a
// truncated or bit-flipped file answers 400 here and never serves. The
// pull's Last-Modified rides along on the push, so the trajectory keeps its
// recording time, and with it its freshness age, across the move.
func (g *Gateway) shipTrajectory(ctx context.Context, from, to, graph, trajectoryKey string) error {
	path := "/trajectories/" + graph + "/" + trajectoryKey
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, from+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return fmt.Errorf("pulling from %s: %w", from, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("pulling from %s: %w", from, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pulling from %s: status %d", from, resp.StatusCode)
	}
	lastModified := resp.Header.Get("Last-Modified")
	req, err = http.NewRequestWithContext(ctx, http.MethodPut, to+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if lastModified != "" {
		req.Header.Set("Last-Modified", lastModified)
	}
	resp, err = g.client.Do(req)
	if err != nil {
		return fmt.Errorf("pushing to %s: %w", to, err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pushing to %s: status %d: %s", to, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// estimateResult is the slice of a replica's estimate response the gateway
// reads back: the trajectory key to remember for migration.
type estimateResult struct {
	TrajectoryKey string `json:"trajectory_key"`
	Answers       []struct {
		TrajectoryKey string `json:"trajectory_key"`
	} `json:"answers"`
}

// handleEstimate routes one estimate request: admission control, then
// single-flight routing with transport-error failover across the replicas.
func (g *Gateway) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(g.cfg.TenantHeader)
	if tenant == "" {
		tenant = "anonymous"
	}
	if ok, wait := g.quotas.allow(tenant); !ok {
		g.quotaRejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(wait.Seconds()))))
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over quota (%.3g req/s, burst %.3g); retry after %s", tenant, g.cfg.QuotaRate, g.cfg.QuotaBurst, wait.Round(time.Millisecond)))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	var meta estimateMeta
	_ = json.Unmarshal(body, &meta) // malformed JSON routes anywhere and is rejected by the replica
	key := flightKey(meta)
	g.routed.Add(1)

	attempts := len(g.cfg.Replicas) + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			g.retries.Add(1)
		}
		f, creator := g.claim(r.Context(), key)
		if f == nil {
			httpError(w, 499, "client closed request while parked on the in-flight recording")
			return
		}
		var target string
		if creator {
			target = g.ring.owner(key)
			if target == "" {
				g.failFlight(key, f, errors.New("no alive replicas"))
				httpError(w, http.StatusBadGateway, "no alive replicas")
				return
			}
		} else {
			if target = g.migrate(r.Context(), key, f); target == "" {
				httpError(w, http.StatusBadGateway, "no alive replicas")
				return
			}
		}

		resp, err := g.proxyEstimate(r.Context(), target, body)
		if err != nil {
			lastErr = err
			g.MarkDown(target, err.Error())
			if creator {
				g.failFlight(key, f, err)
			}
			continue
		}
		if creator {
			if resp.status >= 200 && resp.status < 300 {
				g.completeFlight(f, target, meta.graphName(), resp.trajectoryKey())
			} else {
				// The replica answered but refused (bad query, over budget):
				// nothing was recorded, so there is nothing to memoize.
				g.failFlight(key, f, fmt.Errorf("replica answered %d", resp.status))
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.status)
		_, _ = w.Write(resp.body)
		return
	}
	httpError(w, http.StatusBadGateway, fmt.Sprintf("all replicas failed: %v", lastErr))
}

// proxyResponse is one backend answer held in memory for relay.
type proxyResponse struct {
	status int
	body   []byte
}

// trajectoryKey extracts the trajectory key from a replica's estimate
// answer (single or batch shape); "" when absent.
func (p *proxyResponse) trajectoryKey() string {
	var res estimateResult
	if err := json.Unmarshal(p.body, &res); err != nil {
		return ""
	}
	if res.TrajectoryKey != "" {
		return res.TrajectoryKey
	}
	for _, a := range res.Answers {
		if a.TrajectoryKey != "" {
			return a.TrajectoryKey
		}
	}
	return ""
}

// proxyEstimate forwards one estimate body to target and reads the full
// answer back.
func (g *Gateway) proxyEstimate(ctx context.Context, target string, body []byte) (*proxyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/estimate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxyResponse{status: resp.StatusCode, body: out}, nil
}

// handleBroadcast forwards an admin mutation (PUT/PATCH/DELETE
// /graphs/{name}) to every alive replica — the fleet must agree on the
// graph set and graph versions. The first successful answer is relayed;
// transport failures evict; if no replica succeeds, 502 carries the last
// error body.
func (g *Gateway) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	urls := g.ring.aliveURLs()
	if len(urls) == 0 {
		httpError(w, http.StatusBadGateway, "no alive replicas")
		return
	}
	var first *proxyResponse
	var lastFail *proxyResponse
	var lastErr error
	for _, u := range urls {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, u+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := g.client.Do(req)
		if err != nil {
			lastErr = err
			g.MarkDown(u, err.Error())
			continue
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		pr := &proxyResponse{status: resp.StatusCode, body: out}
		if pr.status >= 200 && pr.status < 300 {
			if first == nil {
				first = pr
			}
		} else {
			lastFail = pr
		}
	}
	switch {
	case first != nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(first.status)
		_, _ = w.Write(first.body)
	case lastFail != nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(lastFail.status)
		_, _ = w.Write(lastFail.body)
	default:
		httpError(w, http.StatusBadGateway, fmt.Sprintf("broadcast failed on every replica: %v", lastErr))
	}
}

// handleForward relays a read-only request to the first alive replica.
func (g *Gateway) handleForward(w http.ResponseWriter, r *http.Request) {
	urls := g.ring.aliveURLs()
	if len(urls) == 0 {
		httpError(w, http.StatusBadGateway, "no alive replicas")
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, urls[0]+r.URL.Path, nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.MarkDown(urls[0], err.Error())
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
}

// gatewayHealth is the gateway's GET /healthz body.
type gatewayHealth struct {
	Status   string          `json:"status"`
	Replicas []ReplicaStatus `json:"replicas"`
	Stats    Stats           `json:"stats"`
}

// Handler exposes the gateway as an HTTP front end:
//
//	POST   /estimate       admission control + single-flight routing to the key's owner replica
//	PUT    /graphs/{name}  broadcast to every alive replica (the fleet serves one graph set)
//	PATCH  /graphs/{name}  broadcast an edge delta to every alive replica
//	DELETE /graphs/{name}  broadcast an unload to every alive replica
//	GET    /graphs         forwarded to one alive replica
//	GET    /methods        forwarded to one alive replica
//	GET    /healthz        the gateway's own ring, routing and quota counters
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", g.handleEstimate)
	mux.HandleFunc("PUT /graphs/{name}", g.handleBroadcast)
	mux.HandleFunc("PATCH /graphs/{name}", g.handleBroadcast)
	mux.HandleFunc("DELETE /graphs/{name}", g.handleBroadcast)
	mux.HandleFunc("GET /graphs", g.handleForward)
	mux.HandleFunc("GET /methods", g.handleForward)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, gatewayHealth{Status: "ok", Replicas: g.Replicas(), Stats: g.Stats()})
	})
	for path, allow := range map[string]string{
		"/estimate":      "POST only",
		"/graphs":        "GET only",
		"/graphs/{name}": "PUT, PATCH or DELETE only",
		"/methods":       "GET only",
		"/healthz":       "GET only",
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			httpError(w, http.StatusMethodNotAllowed, allow)
		})
	}
	return mux
}

// maxBodyBytes caps the estimate and admin bodies the gateway buffers
// before relaying them; replicas apply the same cap.
const maxBodyBytes = 16 << 20

// readBody buffers a request body of at most maxBodyBytes. On failure it
// answers 413 (over the cap) or 400 itself and returns the error.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		httpError(w, http.StatusRequestEntityTooLarge, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
	}
	return body, err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
