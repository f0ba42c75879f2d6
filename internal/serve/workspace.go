package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/store"
)

// ErrUnknownGraph marks a query or admin operation naming a graph the
// workspace does not serve; the HTTP layer maps it to 404 Not Found.
var ErrUnknownGraph = errors.New("serve: unknown graph")

// ErrGraphExists marks an attempt to load a graph under a name already in
// use; the HTTP layer maps it to 409 Conflict. Unload the name first.
var ErrGraphExists = errors.New("serve: graph already loaded")

// GraphOptions are the per-graph engine settings a Workspace applies when a
// graph is added; the zero value inherits the workspace defaults field by
// field (a zero default then means the engine's own documented default, see
// Config).
type GraphOptions struct {
	// BurnIn is the walk burn-in in steps; 0 measures the mixing time once
	// when the graph is added.
	BurnIn int
	// Budget is the default per-trajectory API-call budget; 0 means 5% of
	// |V|.
	Budget int
	// Walkers is the default fleet size per recording; 0 means 1.
	Walkers int
	// Seed is the default trajectory seed.
	Seed int64
	// BatchWindow is the query-coalescing window (see Config.BatchWindow).
	BatchWindow time.Duration
	// TTL bounds the age of trajectories recorded through SourceFactory
	// (see Config.TTL); 0 never expires.
	TTL time.Duration
	// SnapshotPath is the graph's .osnb snapshot on disk; when set,
	// ApplyDelta persists accepted deltas as .osnd segments beside it (see
	// Config.SnapshotPath).
	SnapshotPath string
	// CompactSegments bounds the delta-segment count before the snapshot is
	// compacted; 0 means 8 (see Config.CompactSegments).
	CompactSegments int
	// SourceFactory, when set, builds the upstream osn.Source each recording
	// session meters (see Config.SourceFactory); nil records against the
	// in-memory graph directly.
	SourceFactory func(*graph.Graph) osn.Source
}

// WorkspaceConfig describes a Workspace.
type WorkspaceConfig struct {
	// Store persists every graph's trajectories as .osnt files; nil keeps
	// all trajectories in memory only (no warm start, no reload).
	Store *store.Dir
	// CacheBytes bounds the total .osnt-encoded size of all cached
	// trajectories across all graphs; 0 means unlimited. It is the cache's
	// only eviction rule: over the budget, the globally least-recently-used
	// trajectory is evicted (dirty ones are persisted first, so they can
	// reload from disk on the next request), and warm start stops loading
	// once the budget is full.
	CacheBytes int64
	// GraphsDir is the directory PUT /graphs/{name} resolves relative
	// snapshot paths against (<GraphsDir>/<name>.osnb); "" disables the
	// default resolution (requests must then carry an explicit path).
	GraphsDir string
	// Defaults seed each added graph's options; AddGraph calls may override
	// them per graph.
	Defaults GraphOptions
	// SourceReady, when set, gates Ready (and so /healthz readiness) on the
	// upstream data source: a replica recording through a live API (see
	// internal/osn/httpsrc) must not receive traffic while the upstream is
	// unreachable. Nil means "always ready" — the in-memory source case.
	SourceReady func() bool

	// now is a test hook for the TTL clock; nil means time.Now.
	now func() time.Time
}

// GraphInfo describes one served graph for listings.
type GraphInfo struct {
	// Name is the workspace name queries address the graph by.
	Name string
	// Nodes and Edges are the graph's size.
	Nodes int
	Edges int64 // undirected edge count
	// BurnIn is the burn-in applied to the graph's recordings.
	BurnIn int
	// Version is the graph's current delta-log version (see
	// Engine.ApplyDelta).
	Version uint64
	// CachedTrajectories and CachedBytes describe the graph's share of the
	// trajectory cache.
	CachedTrajectories int
	CachedBytes        int64 // .osnt-encoded size of the cached trajectories
	// Stats are the graph's engine counters.
	Stats Stats
}

// Workspace serves many named graphs from one process: a registry of
// per-graph Engines sharing one persistent trajectory store and one byte
// budget. It is the serving layer's top-level object — the HTTP handler
// routes every query to a workspace graph by name. All methods are safe
// for concurrent use.
type Workspace struct {
	cfg WorkspaceConfig

	mu     sync.Mutex
	graphs map[string]*Engine
	// loading reserves names whose AddGraph is still constructing the
	// engine (mixing-time measurement, warm start), so a concurrent
	// duplicate load conflicts immediately instead of racing.
	loading map[string]bool
	// expected is how many graphs this workspace is configured to serve;
	// Ready reports false until that many have loaded (see ExpectGraphs).
	expected int
}

// NewWorkspace builds an empty workspace; add graphs with AddGraph.
func NewWorkspace(cfg WorkspaceConfig) (*Workspace, error) {
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("serve: negative CacheBytes")
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Workspace{cfg: cfg, graphs: make(map[string]*Engine), loading: make(map[string]bool)}, nil
}

// Store returns the workspace's trajectory store (nil when memory-only).
func (w *Workspace) Store() *store.Dir { return w.cfg.Store }

// GraphsDir returns the snapshot directory admin loads resolve names in.
func (w *Workspace) GraphsDir() string { return w.cfg.GraphsDir }

// CacheBudget returns the workspace byte budget (0 = unlimited).
func (w *Workspace) CacheBudget() int64 { return w.cfg.CacheBytes }

// Defaults returns a copy of the per-graph default options new graphs
// inherit.
func (w *Workspace) Defaults() GraphOptions { return w.cfg.Defaults }

// AddGraph registers g under name and warm-starts its trajectory cache from
// the store: every persisted .osnt recorded for this name is reloaded, so
// the graph's first queries after a restart cost zero API calls. opts nil
// applies the workspace defaults. It returns how many trajectories were
// warm-started. Fails with ErrGraphExists if the name is taken.
func (w *Workspace) AddGraph(name string, g *graph.Graph, opts *GraphOptions) (int, error) {
	if !store.ValidGraphName(name) {
		return 0, fmt.Errorf("%w: invalid graph name %q (want 1-64 of [A-Za-z0-9._-], starting alphanumeric)", ErrBadQuery, name)
	}
	// Reserve the name before the expensive work (mixing-time measurement,
	// warm start): a duplicate load must conflict up front, not after
	// seconds of discarded computation.
	w.mu.Lock()
	if _, taken := w.graphs[name]; taken || w.loading[name] {
		w.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	w.loading[name] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.loading, name)
		w.mu.Unlock()
	}()

	o := w.cfg.Defaults
	if opts != nil {
		o = *opts
	}
	engine, err := New(Config{
		Graph:           g,
		Name:            name,
		Store:           w.cfg.Store,
		BurnIn:          o.BurnIn,
		Budget:          o.Budget,
		Walkers:         o.Walkers,
		Seed:            o.Seed,
		BatchWindow:     o.BatchWindow,
		TTL:             o.TTL,
		SnapshotPath:    o.SnapshotPath,
		CompactSegments: o.CompactSegments,
		SourceFactory:   o.SourceFactory,
		now:             w.cfg.now,
		onCached:        w.enforceBudget,
	})
	if err != nil {
		return 0, err
	}

	w.mu.Lock()
	w.graphs[name] = engine
	w.mu.Unlock()

	// Warm start outside the workspace lock: reloading trajectories is disk
	// IO and must not block queries against other graphs. The engine is
	// already routable — early queries simply race the warm start and at
	// worst reload the same files on miss.
	room := int64(math.MaxInt64)
	if w.cfg.CacheBytes > 0 {
		room = w.cfg.CacheBytes - w.CachedBytes()
	}
	return engine.warmStart(room), nil
}

// RemoveGraph unloads a graph: its dirty trajectories are flushed to the
// store (so a later AddGraph under the same name warm-starts them), then
// the engine is dropped. Fails with ErrUnknownGraph for unknown names.
func (w *Workspace) RemoveGraph(name string) error {
	w.mu.Lock()
	engine, ok := w.graphs[name]
	if ok {
		delete(w.graphs, name)
	}
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	return engine.Flush()
}

// Graph resolves a query's graph name to its engine. An empty name is
// shorthand for the workspace's only graph; with several graphs loaded it
// is rejected (ErrBadQuery) so clients cannot silently query the wrong
// graph.
func (w *Workspace) Graph(name string) (*Engine, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if name == "" {
		if len(w.graphs) == 1 {
			for _, e := range w.graphs {
				return e, nil
			}
		}
		if len(w.graphs) == 0 {
			return nil, fmt.Errorf("%w: no graphs loaded", ErrUnknownGraph)
		}
		return nil, fmt.Errorf("%w: %d graphs loaded, query must name one (have %v)", ErrBadQuery, len(w.graphs), w.namesLocked())
	}
	e, ok := w.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownGraph, name, w.namesLocked())
	}
	return e, nil
}

// namesLocked returns the sorted graph names; callers hold w.mu.
func (w *Workspace) namesLocked() []string {
	names := make([]string, 0, len(w.graphs))
	for n := range w.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExpectGraphs declares how many graphs this workspace is configured to
// serve. Ready stays false until that many have finished loading, giving
// health probers a correct warm-up signal: a replica that has bound its
// listener but is still loading snapshots must not receive traffic yet.
func (w *Workspace) ExpectGraphs(n int) {
	w.mu.Lock()
	w.expected = n
	w.mu.Unlock()
}

// Ready reports whether every configured graph has finished loading — at
// least ExpectGraphs graphs are registered and no AddGraph is still in
// flight — and, when SourceReady is configured, whether the upstream data
// source is reachable. A workspace with no declared expectation is ready
// once nothing is loading — graphs added later at runtime do not flip it
// back.
func (w *Workspace) Ready() bool {
	w.mu.Lock()
	loaded := len(w.graphs) >= w.expected && len(w.loading) == 0
	srcReady := w.cfg.SourceReady
	w.mu.Unlock()
	if !loaded {
		return false
	}
	return srcReady == nil || srcReady()
}

// TrajectoryKeys lists the named graph's exportable trajectory keys (see
// Engine.TrajectoryKeys).
func (w *Workspace) TrajectoryKeys(graphName string) ([]string, error) {
	e, err := w.Graph(graphName)
	if err != nil {
		return nil, err
	}
	return e.TrajectoryKeys(), nil
}

// ExportTrajectory returns the raw .osnt bytes of one trajectory of the
// named graph and its recording time (see Engine.ExportTrajectory).
func (w *Workspace) ExportTrajectory(graphName, key string) ([]byte, time.Time, error) {
	e, err := w.Graph(graphName)
	if err != nil {
		return nil, time.Time{}, err
	}
	return e.ExportTrajectory(key)
}

// ImportTrajectory verifies and admits raw .osnt bytes from a peer replica,
// recorded at recorded, as a trajectory of the named graph (see
// Engine.ImportTrajectory).
func (w *Workspace) ImportTrajectory(graphName, key string, raw []byte, recorded time.Time) error {
	e, err := w.Graph(graphName)
	if err != nil {
		return err
	}
	return e.ImportTrajectory(key, raw, recorded)
}

// Estimate answers one query against the named graph (see Engine.Estimate;
// "" addresses the workspace's only graph).
func (w *Workspace) Estimate(ctx context.Context, graphName string, q Query) (*Answer, error) {
	e, err := w.Graph(graphName)
	if err != nil {
		return nil, err
	}
	return e.Estimate(ctx, q)
}

// ApplyDelta mutates the named graph through its engine (see
// Engine.ApplyDelta): the delta is applied copy-on-write, persisted when the
// graph has a snapshot path, and the new version swapped in. Returns the new
// graph version.
func (w *Workspace) ApplyDelta(graphName string, d graph.Delta) (uint64, error) {
	e, err := w.Graph(graphName)
	if err != nil {
		return 0, err
	}
	return e.ApplyDelta(d)
}

// EstimateBatch answers a batch of queries against ONE graph and ONE shared
// trajectory (see Engine.EstimateBatch). Batches cannot mix graphs: a
// trajectory is a walk over one graph, so a mixed-graph batch has no shared
// walk to replay — callers must split such batches themselves.
func (w *Workspace) EstimateBatch(ctx context.Context, graphName string, qs []Query) ([]*Answer, error) {
	e, err := w.Graph(graphName)
	if err != nil {
		return nil, err
	}
	return e.EstimateBatch(ctx, qs)
}

// engines snapshots the served engines, so callers can work on them
// without holding the workspace lock.
func (w *Workspace) engines() []*Engine {
	w.mu.Lock()
	defer w.mu.Unlock()
	engines := make([]*Engine, 0, len(w.graphs))
	for _, e := range w.graphs {
		engines = append(engines, e)
	}
	return engines
}

// List describes every served graph, sorted by name.
func (w *Workspace) List() []GraphInfo {
	engines := w.engines()
	infos := make([]GraphInfo, 0, len(engines))
	for _, e := range engines {
		g := e.Graph()
		infos = append(infos, GraphInfo{
			Name:               e.Name(),
			Nodes:              g.NumNodes(),
			Edges:              g.NumEdges(),
			BurnIn:             e.BurnIn(),
			Version:            g.Version(),
			CachedTrajectories: e.CachedTrajectories(),
			CachedBytes:        e.CachedBytes(),
			Stats:              e.Stats(),
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// CachedBytes returns the workspace-wide cache weight: the total
// .osnt-encoded size of every graph's completed trajectories.
func (w *Workspace) CachedBytes() int64 {
	var total int64
	for _, e := range w.engines() {
		total += e.CachedBytes()
	}
	return total
}

// Flush persists every graph's dirty trajectories to the store — the
// graceful-shutdown drain. The first error is returned after every graph
// has been attempted.
func (w *Workspace) Flush() error {
	var firstErr error
	for _, e := range w.engines() {
		if err := e.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// enforceBudget evicts globally least-recently-used trajectories until the
// workspace is back under its byte budget — the cache's one eviction rule.
// Each step is one scan of every engine's cache, which yields both the
// total weight and the global victim. Dirty victims are persisted before
// eviction, so evicted-then-requested trajectories reload from disk instead
// of re-walking. Engines call it (via Config.onCached) after their caches
// grow.
func (w *Workspace) enforceBudget() {
	if w.cfg.CacheBytes <= 0 {
		return
	}
	for {
		var total int64
		var lru victim
		for _, e := range w.engines() {
			bytes, v := e.lru()
			total += bytes
			if v.ent != nil && (lru.ent == nil || v.lastUsed.Before(lru.lastUsed)) {
				lru = v
			}
		}
		if total <= w.cfg.CacheBytes || lru.ent == nil {
			return
		}
		lru.evict()
	}
}
