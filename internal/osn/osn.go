// Package osn simulates the restricted access model of the paper
// (Section 3): the graph can only be reached through API calls that return
// the friend list of a given user, while |V| and |E| are known a priori.
// A Session meters every API call against a pluggable Source backend. The
// failures, retries and rate limits a crawler faces against a production OSN
// belong to the Source (see internal/osn/httpsrc); a Latency decorator
// simulates the round trip.
//
// Accounting model. The paper measures cost in API calls and reports sample
// sizes as percentages of |V| API calls. A Session charges one call per
// distinct friend list fetched in an accounting phase (Neighbors and Degree
// share the endpoint); repeated queries for a node already fetched are served
// from the session cache free of charge — the behaviour of any real crawler
// that memoizes responses. ChargeFlat bills surcharges not tied to a fetch.
// Label lookups are free: a friend list response in real OSN APIs carries
// profile snippets of the friends.
package osn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ErrBudgetExhausted is returned once a Meter's API-call budget is spent.
// Algorithms surface it so experiments stop at exactly the budgeted cost.
var ErrBudgetExhausted = errors.New("osn: API call budget exhausted")

// Config controls the access model of a Session.
type Config struct {
	// Pool, when non-nil, recycles the session's node-indexed accounting
	// arrays (and its meters' walker-local arenas) across sessions over
	// graphs with the same node count, so a long-lived serving engine pays
	// the O(|V|) allocations once instead of per estimate. The pool's node
	// count must equal the Source's. Call Session.Release when the session
	// is done with all metered access to return the arrays.
	Pool *Pool
}

// API is the access surface shared by Session and Meter: everything the
// estimation algorithms are allowed to touch. Walkers and estimators are
// written against this interface. Every sampling walk runs on a Meter (one
// per walker over a shared Session); Session's own charged methods serve
// the k-restart ablation (core.NeighborSampleIndependent), which meters
// the whole session.
type API interface {
	NumNodes() int
	NumEdges() int64
	Neighbors(u graph.Node) ([]graph.Node, error)
	Degree(u graph.Node) (int, error)
	Labels(u graph.Node) []graph.Label
	HasLabel(u graph.Node, l graph.Label) bool
	RandomNode(rng *rand.Rand) graph.Node
	ChargeFlat(n int64) error
	Calls() int64
}

// cacheShards is the shard count of the response cache. Power of two so the
// shard index is a mask; 64 shards keep contention negligible for any
// realistic walker count.
const cacheShards = 64

// cacheShard is one lock-striped slice of the response cache, used when the
// Source is not an in-memory graph (for GraphSource the graph itself is the
// response store and only the fetched bitmap is needed).
type cacheShard struct {
	mu sync.RWMutex
	m  map[graph.Node][]graph.Node
}

// Session is a metered, concurrency-safe handle to a hidden graph reachable
// through a Source. All methods are safe for concurrent use: the call
// counter is maintained with atomics and the response cache is sharded. A
// multi-walker estimate shares one Session across its goroutines, each
// walker metering its slice of the budget through a Meter (see
// Session.Meter). ResetAccounting is the exception: it must not race with
// in-flight calls.
type Session struct {
	src Source

	// graphFast short-circuits the response cache when the Source is an
	// in-memory GraphSource: responses are read straight from the immutable
	// graph and only the fetched bitmap is kept, preserving the hot path's
	// speed.
	graphFast *graph.Graph

	calls atomic.Int64

	// epoch is the current accounting epoch. fetched[u] == epoch marks u's
	// response as available locally — the crawl cache membership bit, which
	// guards metering, not storage. ResetAccounting invalidates the whole
	// bitmap by bumping the epoch instead of wiping O(|V|) entries, so the
	// burn-in/sampling barrier costs O(1) regardless of graph size.
	epoch   atomic.Uint32
	fetched []atomic.Uint32

	// pool, when non-nil, owns the backing of fetched and of every pooled
	// meter arena; Release returns them. See Config.Pool.
	pool *Pool
	// meterMu guards pooledMeters (Meter may be called while earlier meters
	// are live; registration must not race with Release).
	meterMu      sync.Mutex
	pooledMeters []*Meter

	shards [cacheShards]cacheShard

	// prepaid marks nodes whose response was carried over from a previous
	// recording (see Prepay); nil when nothing is prepaid. Redeeming a
	// prepaid node is billed exactly like a fresh fetch — the counters
	// advance identically — but skips the upstream Source and bumps
	// prepaidHits, so callers can report the calls that cost nothing
	// upstream. The bits are never cleared on redemption:
	// once-per-accounting-phase semantics come from the fetched bitmap,
	// which ResetAccounting wipes at the burn-in/sampling barrier. Only
	// Prepay writes the set, and it must not race with fetches, so the
	// walkers read it without atomics.
	prepaid graph.NodeSet
	// prepaidResp holds the carried-over responses when the Source is not
	// an in-memory graph; read-only after Prepay.
	prepaidResp map[graph.Node][]graph.Node
	prepaidHits atomic.Int64
}

// NewSession wraps g in the restricted access model, backed by an in-memory
// GraphSource.
func NewSession(g *graph.Graph, cfg Config) (*Session, error) {
	return NewSessionFrom(NewGraphSource(g), cfg)
}

// NewSessionFrom wraps an arbitrary Source in the restricted access model.
func NewSessionFrom(src Source, cfg Config) (*Session, error) {
	s := &Session{src: src, pool: cfg.Pool}
	if s.pool != nil {
		if s.pool.Nodes() != src.NumNodes() {
			return nil, fmt.Errorf("osn: pool spans %d nodes, source %d", s.pool.Nodes(), src.NumNodes())
		}
		var last uint32
		s.fetched, last = s.pool.getFetched()
		s.epoch.Store(nextEpoch(last, func() { clearEpochs(s.fetched) }))
	} else {
		s.fetched = make([]atomic.Uint32, src.NumNodes())
		s.epoch.Store(1)
	}
	if gs, ok := src.(GraphSource); ok {
		s.graphFast = gs.G
	} else {
		// The response store is only needed when responses cannot be re-read
		// from an immutable in-memory graph; for GraphSource the graph itself
		// is the store and the shard maps would be dead weight per session.
		for i := range s.shards {
			s.shards[i].m = make(map[graph.Node][]graph.Node)
		}
	}
	return s, nil
}

// nextEpoch advances an epoch counter, invoking wipe (which must zero every
// stamp the counter guards) on the once-in-2^32 wraparound so stale stamps
// can never alias a live epoch.
func nextEpoch(cur uint32, wipe func()) uint32 {
	next := cur + 1
	if next == 0 {
		wipe()
		next = 1
	}
	return next
}

// clearEpochs zeroes an epoch-stamp array (the wraparound slow path).
func clearEpochs(a []atomic.Uint32) {
	for i := range a {
		a[i].Store(0)
	}
}

// Release returns the session's pooled accounting arrays — and those of
// every meter it issued — to the configured pool, for the next session over
// the same graph size to reuse. It is a no-op for unpooled sessions. The
// session and its meters must not perform any further metered access after
// Release; free label reads (Labels, HasLabel) remain valid, so a recorded
// trajectory bound to this session keeps replaying.
func (s *Session) Release() {
	if s.pool == nil {
		return
	}
	s.meterMu.Lock()
	meters := s.pooledMeters
	s.pooledMeters = nil
	s.meterMu.Unlock()
	for _, m := range meters {
		s.pool.putMeter(m.bits, m.wordEpoch, m.epoch)
		m.bits, m.wordEpoch = nil, nil
	}
	if s.fetched != nil {
		s.pool.putFetched(s.fetched, s.epoch.Load())
		s.fetched = nil
	}
}

// NumNodes returns |V| — prior knowledge per the paper's assumption (2).
func (s *Session) NumNodes() int { return s.src.NumNodes() }

// NumEdges returns |E| — prior knowledge per the paper's assumption (2).
func (s *Session) NumEdges() int64 { return s.src.NumEdges() }

// Prepay registers carried-over neighbor responses from a previous
// recording of the same source: fetching a prepaid node is metered exactly
// like a fresh fetch (so a re-run stays bit-identical), but is served from
// resp instead of the upstream Source and counted in PrepaidHits. The caller
// must guarantee each response equals what the Source would return NOW —
// core.ResumeRecording builds the map by filtering a stale trajectory's
// recorded responses against the current graph. Call before any fetches;
// Prepay must not race with in-flight calls. Successive calls merge (the
// later call wins per node), so a source-side persistent cache (see
// SessionPrimer) and a trajectory top-up can both prepay one session.
func (s *Session) Prepay(resp map[graph.Node][]graph.Node) {
	if len(resp) == 0 {
		return
	}
	n := s.src.NumNodes()
	if s.prepaid == nil {
		s.prepaid = graph.NewNodeSet(n)
	}
	for u := range resp {
		if u >= 0 && int(u) < n {
			s.prepaid.Add(u)
		}
	}
	if s.graphFast == nil {
		if s.prepaidResp == nil {
			s.prepaidResp = make(map[graph.Node][]graph.Node, len(resp))
		}
		for u, adj := range resp {
			s.prepaidResp[u] = adj
		}
	}
}

// PrepaidHits returns how many charged calls were served from prepaid
// responses instead of the upstream Source since the last ResetAccounting —
// the API spend a trajectory top-up inherited rather than re-bought.
func (s *Session) PrepaidHits() int64 { return s.prepaidHits.Load() }

// redeemPrepaid serves u from the prepaid responses if it is prepaid,
// populating the crawl cache like fill does. Callers charge first, so
// accounting is identical to a fresh fetch.
func (s *Session) redeemPrepaid(u graph.Node) ([]graph.Node, bool) {
	if !s.prepaid.Has(u) {
		return nil, false
	}
	var adj []graph.Node
	if s.graphFast != nil {
		adj = s.graphFast.Neighbors(u)
	} else {
		adj = s.prepaidResp[u]
		sh := &s.shards[uint(u)%cacheShards]
		sh.mu.Lock()
		sh.m[u] = adj
		sh.mu.Unlock()
	}
	if ep := s.epoch.Load(); s.fetched[u].Swap(ep) != ep {
		s.prepaidHits.Add(1)
	}
	return adj, true
}

// cached returns u's response if it is in the crawl cache (fetched in the
// current accounting epoch).
func (s *Session) cached(u graph.Node) ([]graph.Node, bool) {
	if s.fetched[u].Load() != s.epoch.Load() {
		return nil, false
	}
	if s.graphFast != nil {
		return s.graphFast.Neighbors(u), true
	}
	sh := &s.shards[uint(u)%cacheShards]
	sh.mu.RLock()
	adj, ok := sh.m[u]
	sh.mu.RUnlock()
	return adj, ok
}

// fill fetches u from the Source and populates the crawl cache. It performs
// no metering; callers charge first.
func (s *Session) fill(u graph.Node) ([]graph.Node, error) {
	adj, err := s.src.Neighbors(u)
	if err != nil {
		return nil, fmt.Errorf("osn: source fetch for node %d: %w", u, err)
	}
	if s.graphFast == nil {
		sh := &s.shards[uint(u)%cacheShards]
		sh.mu.Lock()
		sh.m[u] = adj
		sh.mu.Unlock()
	}
	s.fetched[u].Store(s.epoch.Load())
	return adj, nil
}

// Neighbors returns the friend list of u, charging one API call. The
// returned slice is shared and must not be modified.
func (s *Session) Neighbors(u graph.Node) ([]graph.Node, error) {
	if err := s.checkNode(u); err != nil {
		return nil, err
	}
	if adj, hit := s.cached(u); hit {
		return adj, nil // crawl-cache hit: free
	}
	s.calls.Add(1)
	if adj, ok := s.redeemPrepaid(u); ok {
		return adj, nil // billed like a fresh fetch, served without upstream
	}
	return s.fill(u)
}

// Degree returns d(u). It is metered identically to Neighbors: real APIs
// expose the friend count on the same endpoint as the friend list.
func (s *Session) Degree(u graph.Node) (int, error) {
	adj, err := s.Neighbors(u)
	if err != nil {
		return 0, err
	}
	return len(adj), nil
}

// ChargeFlat bills n additional API calls not tied to a neighbor-list fetch
// — the profile reads a NeighborExploration surcharge models (see
// core.CostModel). A Session never refuses the charge; the error belongs to
// the API contract, under which a Meter refuses it once its budget is spent.
func (s *Session) ChargeFlat(n int64) error {
	if n > 0 {
		s.calls.Add(n)
	}
	return nil
}

// Labels returns the label set of u (profile fields). Label reads are free;
// see the package comment for the accounting argument.
func (s *Session) Labels(u graph.Node) []graph.Label { return s.src.Labels(u) }

// HasLabel reports whether u carries label l, free of charge.
func (s *Session) HasLabel(u graph.Node, l graph.Label) bool { return s.src.HasLabel(u, l) }

// RandomNode returns a uniformly random node ID to start a walk from.
// Uniform node sampling is NOT generally available on a real OSN; walks only
// use it for the initial position, whose influence the burn-in erases, so
// simulating it is harmless.
func (s *Session) RandomNode(rng *rand.Rand) graph.Node {
	return s.src.RandomNode(rng)
}

// Calls returns the number of charged API calls so far.
func (s *Session) Calls() int64 { return s.calls.Load() }

// ResetAccounting zeroes the call counter and crawl cache, e.g. after
// burn-in when only the sampling phase should be billed. The crawl-cache
// bitmap is invalidated in O(1) by bumping the accounting epoch — stale
// stamps simply stop matching — so the burn-in/sampling barrier does not
// scale with |V|. Unlike the rest of the Session it must not race with
// in-flight calls: callers synchronize (the multi-walker engine barriers
// all walkers between burn-in and sampling before resetting).
func (s *Session) ResetAccounting() {
	s.calls.Store(0)
	s.prepaidHits.Store(0)
	s.epoch.Store(nextEpoch(s.epoch.Load(), func() { clearEpochs(s.fetched) }))
	if s.graphFast == nil {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.m = make(map[graph.Node][]graph.Node)
			sh.mu.Unlock()
		}
	}
}

func (s *Session) checkNode(u graph.Node) error {
	if u < 0 || int(u) >= s.src.NumNodes() {
		return fmt.Errorf("osn: node %d out of range [0,%d)", u, s.src.NumNodes())
	}
	return nil
}
