// Package serve is the multi-client query front end over the
// shared-trajectory estimation engine. A Workspace serves any number of
// named graphs, each behind the restricted access model, and answers
// concurrent estimation queries by recording one random-walk trajectory per
// (budget, walkers, seed) configuration and replaying it through the
// estimation-task registry (core.RegisterTask) for whatever anyone asks
// about — label-pair counts (kind "pairs"), graph size (kind "size"), a
// label-pair census (kind "census") or motif counts (kind "motif"). The
// task kind is deliberately NOT part of the trajectory cache key: a
// mixed-kind batch of queries at one configuration shares a single
// recording, so heterogeneous workloads cost the API calls of one walk.
// Queries arriving within a batching window share a single fleet recording;
// finished trajectories stay cached under a workspace-wide byte budget, so a
// popular configuration serves any number of questions and clients at the
// API cost of one walk — the amortization that lets the paper's estimators
// serve heavy traffic. Recordings through an upstream source additionally
// age out after a freshness TTL.
//
// Trajectories are the system's most expensive artifact (every step cost a
// metered API call), so the workspace can persist them: completed
// recordings are written to a store.Dir as .osnt files, reloaded on restart
// (warm start) and on cache miss, and flushed on graceful shutdown. A
// reloaded trajectory replays to byte-equal estimates, so a restarted
// server answers previously cached queries with zero API spend.
package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/osn"
	"repro/internal/store"
	"repro/internal/walk"

	// motif and sizeest are imported for their "motif" and "size" task
	// registrations only; "pairs", "census" and "assortativity" register
	// from core itself.
	_ "repro/internal/motif"
	_ "repro/internal/sizeest"
)

// ErrQueryBudget is returned when a query's MaxCost cannot pay for the
// trajectory it would trigger and no cached trajectory can serve it.
var ErrQueryBudget = errors.New("serve: query budget smaller than the trajectory cost")

// ErrBadQuery marks a structurally invalid query (unknown kind, missing or
// negative parameters, a batch mixing trajectory configurations); the HTTP
// layer maps it to 400 Bad Request.
var ErrBadQuery = errors.New("serve: bad query")

// ErrEstimation marks a query whose replay could not produce an estimate
// from the recorded trajectory (e.g. a size estimate with too small a
// budget for collisions). The trajectory itself is fine and stays cached;
// the client should retry with a larger budget. The HTTP layer maps it to
// 422 Unprocessable Entity. A query that co-triggered the recording keeps
// its seat in the bill split even when its replay then fails: the spend
// happened on its behalf, and the surviving sharers' Charged shares were
// computed against the final sharer count — so the sum of SUCCESSFUL
// answers' Charged can fall short of APICalls by the failed queries'
// shares.
var ErrEstimation = errors.New("serve: estimation failed")

// ErrBadTrajectory marks an attempted trajectory import whose bytes failed
// verification: a corrupt or truncated .osnt image (the CRC and structural
// checks), or a file recorded against a different graph state or burn-in
// than this engine serves. The HTTP layer maps it to 400 Bad Request — the
// puller must fall back to re-recording instead of serving the bytes.
var ErrBadTrajectory = errors.New("serve: trajectory rejected")

// Methods returns the estimator names a "pairs" answer carries, in stable
// order. The names match repro.Method values.
func Methods() []string { return core.MethodNames() }

// Kinds returns the estimation-task kinds the engine dispatches, sorted.
func Kinds() []string { return core.TaskKinds() }

// Config describes an Engine — one served graph with its trajectory cache.
// Engines are usually owned by a Workspace, which supplies Graph, Name,
// Store and the byte-budget coordination; GraphOptions is this type.
type Config struct {
	// Graph is the served graph. Required.
	Graph *graph.Graph
	// Name is the graph's workspace name, used as its directory in the
	// trajectory store. Required when Store is set; must satisfy
	// store.ValidGraphName.
	Name string
	// Store persists completed trajectories as .osnt files and reloads
	// them on cache miss; nil keeps trajectories in memory only.
	Store *store.Dir
	// BurnIn is the walk burn-in in steps; 0 measures the mixing time
	// T(1e-3) once at engine construction (Section 5.1).
	BurnIn int
	// Budget is the default per-trajectory API-call budget; 0 means 5% of
	// |V| (the paper's largest evaluated budget).
	Budget int
	// Walkers is the default fleet size per recording; 0 means 1.
	Walkers int
	// Seed is the default trajectory seed; queries may override it to force
	// an independent walk.
	Seed int64
	// BatchWindow is how long the first query of a configuration waits
	// before recording, so that concurrent queries join the same fleet run.
	// 0 records immediately (concurrent queries still coalesce while the
	// recording is in flight).
	BatchWindow time.Duration
	// TTL bounds the age of trajectories recorded through SourceFactory: a
	// query finding one older than TTL re-records it from the upstream
	// instead of serving or reloading it. Age counts from the recording —
	// across store reloads and restarts it is the .osnt file's modification
	// time, and an import keeps the exporter's (see ImportTrajectory). 0
	// never expires. Engines recording the in-memory graph ignore
	// TTL: graph version plus fingerprint already identify their
	// trajectories, so re-walking one would buy identical bytes.
	TTL time.Duration
	// SnapshotPath, when set, is the graph's .osnb snapshot on disk:
	// ApplyDelta persists each accepted delta as a .osnd segment beside it
	// before the swap, so a restarted server reloads the mutated graph.
	SnapshotPath string
	// CompactSegments bounds how many .osnd delta segments may accumulate
	// beside SnapshotPath before ApplyDelta compacts them into a fresh base
	// snapshot; 0 means 8. Ignored without SnapshotPath.
	CompactSegments int
	// SourceFactory, when set, builds the upstream osn.Source each recording
	// session meters, from the graph version the recording snapshots. Nil
	// means the in-memory osn.GraphSource — the default simulation backend.
	// Cluster tests inject metered (call-counted, latency-injected, gated)
	// sources here, and cmd/serve -source-url plugs in the HTTP crawler
	// (internal/osn/httpsrc) the same way.
	SourceFactory func(*graph.Graph) osn.Source

	// now is a test hook for the TTL clock; nil means time.Now.
	now func() time.Time
	// onCached, when set by the owning workspace, is invoked (without any
	// engine lock held) after the cache gains a trajectory, so the
	// workspace can enforce its byte budget. A standalone engine never
	// evicts.
	onCached func()
}

// Query is one client request: run one estimation task against a shared
// trajectory.
type Query struct {
	// Kind selects the estimation task; empty means "pairs". The kind is
	// not part of the trajectory cache key — queries of different kinds at
	// one (Budget, Walkers, Seed) configuration share one recording.
	Kind string
	// Pairs are the queried label pairs. Required for kind "pairs";
	// optional for kind "motif" (absent = the unlabeled count); ignored
	// otherwise.
	Pairs []graph.LabelPair
	// Motif selects the motif shape for kind "motif": "wedges" or
	// "triangles".
	Motif string
	// Variant selects the mixing measure for kind "assortativity": "degree"
	// (the default when empty) or "label". Ignored otherwise.
	Variant string
	// Top bounds how many census rows kind "census" returns; 0 returns all.
	Top int
	// Budget overrides the engine's per-trajectory API budget when positive.
	Budget int
	// Walkers overrides the engine's fleet size when positive.
	Walkers int
	// Seed overrides the engine's trajectory seed when non-zero. Queries
	// with equal (Budget, Walkers, Seed) share a trajectory.
	Seed int64
	// MaxCost caps the API calls this query may be charged; 0 means
	// unlimited. A query that can only be served by recording a trajectory
	// costlier than MaxCost is rejected with ErrQueryBudget before any call
	// is spent. The check is conservative: it is applied against the
	// recording budget even when a persisted trajectory might have served
	// the query from disk for free, unless that file is already known to
	// exist.
	MaxCost int64
}

// PairAnswer is one pair's estimates, keyed by method name (see Methods):
// a row of the HTTP "pairs" answer.
type PairAnswer struct {
	// Pair echoes the queried label pair.
	graph.Pair
	// Estimates maps each method name to its estimate of F.
	Estimates map[string]float64 `json:"estimates"`
}

// String prints the row's pair with its estimates; without it, fmt would
// print the embedded pair's String alone.
func (r PairAnswer) String() string { return fmt.Sprintf("%v: estimates %v", r.Pair, r.Estimates) }

// Answer is the engine's response to one Query.
type Answer struct {
	// Kind echoes the task kind that produced the answer.
	Kind string `json:"kind"`
	// Pairs is populated for kind "pairs" (the historical response shape).
	Pairs []PairAnswer `json:"-"`
	// Result holds the task's typed result for every other kind:
	// sizeest.Result for "size", core.CensusResult for "census",
	// motif.TaskResult for "motif".
	Result any `json:"-"`
	// Err is set only on answers of an EstimateBatch call whose replay
	// failed (wrapping ErrEstimation); the batch's other answers are
	// unaffected. Single Estimate calls report replay failures as the
	// call's error instead.
	Err error `json:"-"`
	// APICalls is the sampling cost of the trajectory that served the query.
	APICalls int64 `json:"api_calls"`
	// Charged is this query's accounted share of that cost: 0 on a cache
	// hit, APICalls split evenly across the queries that co-triggered the
	// recording otherwise (and further across the members of a batch).
	Charged int64 `json:"charged"`
	// CacheHit reports whether a previously recorded trajectory served the
	// query without any API spend — from memory or reloaded from the
	// persistent store.
	CacheHit bool `json:"cache_hit"`
	// SharedBy is how many queries split the recording bill (1 when this
	// query paid alone; 0 on a cache hit).
	SharedBy int `json:"shared_by"`
	// Walkers and Samples describe the serving trajectory.
	Walkers int `json:"walkers"`
	Samples int `json:"samples"` // total recorded samples across the fleet
	// GraphVersion is the delta-log version of the graph the serving
	// trajectory was recorded (or topped up) on, so clients can tell which
	// graph state an estimate reflects.
	GraphVersion uint64 `json:"graph_version"`
	// StaleSteps is how many of the serving trajectory's steps had to be
	// re-recorded because a graph delta invalidated them — non-zero only
	// when the trajectory was produced by an incremental top-up. 0 means the
	// answer replays a trajectory recorded in one piece on its graph
	// version.
	StaleSteps int `json:"stale_steps"`
	// StoreKey is the resolved persistent-store spelling of the trajectory
	// that served the query (e.g. "b500_w4_s1_g0.osnt"): the engine defaults
	// applied to the query's budget/walkers/seed, at the serving graph
	// version. A gateway uses it verbatim as the {key} of the trajectory
	// replication endpoints, so peers can pull exactly this recording.
	StoreKey string `json:"trajectory_key,omitempty"`
}

// Stats counts engine activity since construction.
type Stats struct {
	// Queries is the number of queries answered; a query whose replay
	// failed (ErrEstimation) is not counted here or below.
	Queries int64 `json:"queries"`
	// TasksByKind counts answered queries per task kind.
	TasksByKind map[string]int64 `json:"tasks_by_kind,omitempty"`
	// Recordings is how many trajectories were recorded.
	Recordings int64 `json:"recordings"`
	// CacheHits is how many queries were served without triggering or
	// joining a recording.
	CacheHits int64 `json:"cache_hits"`
	// UpstreamCalls is the total API-call spend across recordings.
	UpstreamCalls int64 `json:"upstream_api_calls"`
	// StoreLoads is how many trajectories were reloaded from the
	// persistent store (at zero API spend) instead of being re-recorded.
	StoreLoads int64 `json:"store_loads"`
	// StoreSaves is how many trajectories were persisted to the store.
	StoreSaves int64 `json:"store_saves"`
	// StoreErrors counts failed store reads/writes (corrupt files, IO
	// errors, version mismatches); the engine falls back to recording.
	StoreErrors int64 `json:"store_errors"`
	// Deltas is how many graph deltas the engine has applied.
	Deltas int64 `json:"deltas"`
	// TopUps is how many recordings were served by incrementally topping up
	// a stale trajectory instead of re-recording from scratch.
	TopUps int64 `json:"topups"`
	// TopUpSavedCalls is the upstream API spend the top-ups avoided: the sum
	// of their redeemed (prepaid) calls. A top-up's nominal bill equals a
	// fresh recording's; only its nominal bill minus this saving hits the
	// upstream API, and UpstreamCalls counts that actual spend.
	TopUpSavedCalls int64 `json:"topup_saved_calls"`
	// Imports is how many trajectories arrived as verified .osnt bytes from
	// a peer replica (ImportTrajectory) instead of being recorded or loaded
	// from this engine's own store — the replication data plane's hit count.
	Imports int64 `json:"imports"`
}

// add folds o's counters into s — the workspace-wide totals.
func (s *Stats) add(o Stats) {
	s.Queries += o.Queries
	for k, n := range o.TasksByKind {
		if s.TasksByKind == nil {
			s.TasksByKind = make(map[string]int64)
		}
		s.TasksByKind[k] += n
	}
	s.Recordings += o.Recordings
	s.CacheHits += o.CacheHits
	s.UpstreamCalls += o.UpstreamCalls
	s.StoreLoads += o.StoreLoads
	s.StoreSaves += o.StoreSaves
	s.StoreErrors += o.StoreErrors
	s.Deltas += o.Deltas
	s.TopUps += o.TopUps
	s.TopUpSavedCalls += o.TopUpSavedCalls
	s.Imports += o.Imports
}

// Engine owns one graph and serves estimate queries over shared
// trajectories. The graph is mutable: ApplyDelta swaps in a patched
// copy-on-write version while queries and recordings in flight keep the
// version they started on. All methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	burnIn int

	// graph is the currently served graph version; reads are lock-free so
	// the estimate hot path never contends with delta application.
	graph atomic.Pointer[graph.Graph]
	// deltaMu serializes ApplyDelta: delta persistence, the version chain
	// and compaction must advance one delta at a time.
	deltaMu sync.Mutex

	// pool recycles the O(|V|) session and walker accounting arrays across
	// recordings, so a warm engine's per-estimate allocations are constant
	// in graph size. Sound for the engine's lifetime because deltas only
	// change edges, never the node count.
	pool *osn.Pool

	mu sync.Mutex
	// cache is keyed by trajectory configuration: a store.Key whose
	// GraphVersion is 0. The served version is checked on every hit.
	cache map[store.Key]*entry
	stats Stats
}

// New builds an engine over cfg.Graph, measuring the mixing time once when
// cfg.BurnIn is zero.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("serve: Config.Graph is required")
	}
	if cfg.Graph.NumNodes() == 0 || cfg.Graph.NumEdges() == 0 {
		return nil, fmt.Errorf("serve: graph has no edges to sample")
	}
	if cfg.Budget < 0 || cfg.Walkers < 0 || cfg.BatchWindow < 0 || cfg.TTL < 0 || cfg.CompactSegments < 0 {
		return nil, fmt.Errorf("serve: negative Budget/Walkers/BatchWindow/TTL/CompactSegments")
	}
	if cfg.Store != nil && !store.ValidGraphName(cfg.Name) {
		return nil, fmt.Errorf("serve: a stored engine needs a valid graph name, got %q", cfg.Name)
	}
	if cfg.CompactSegments == 0 {
		cfg.CompactSegments = 8
	}
	if cfg.Budget == 0 {
		cfg.Budget = cfg.Graph.NumNodes() / 20
		if cfg.Budget < 100 {
			cfg.Budget = 100
		}
	}
	if cfg.Walkers == 0 {
		cfg.Walkers = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	burn := cfg.BurnIn
	if burn <= 0 {
		var err error
		if burn, err = walk.BurnIn(context.Background(), cfg.Graph); err != nil {
			return nil, err
		}
	}
	e := &Engine{cfg: cfg, burnIn: burn, cache: make(map[store.Key]*entry)}
	e.pool = osn.NewPool(cfg.Graph.NumNodes())
	e.graph.Store(cfg.Graph)
	return e, nil
}

// Graph returns the currently served graph version. The pointer is a
// consistent snapshot: deltas applied later swap in a new graph without
// mutating this one.
func (e *Engine) Graph() *graph.Graph { return e.graph.Load() }

// ApplyDelta mutates the served graph: the delta is validated and applied
// copy-on-write, persisted as a .osnd segment beside the graph's snapshot
// (when the engine knows one), and the new version swapped in for subsequent
// queries. Cached trajectories of older versions are NOT dropped — the next
// query at their configuration redeems their still-valid steps through an
// incremental top-up instead of paying for a full re-recording. When the
// delta log outgrows CompactSegments, the snapshot is compacted: the base
// .osnb is atomically rewritten at the current version and the absorbed
// segments removed. Returns the new graph version.
func (e *Engine) ApplyDelta(d graph.Delta) (uint64, error) {
	if d.Empty() {
		return 0, fmt.Errorf("%w: empty delta", ErrBadQuery)
	}
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	old := e.Graph()
	ng, err := old.ApplyDelta(d)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	// Persist the segment BEFORE the swap: once queries can observe the new
	// version, a restart must be able to reproduce it.
	if e.cfg.SnapshotPath != "" {
		if _, err := snapshot.SaveDelta(e.cfg.SnapshotPath, old, ng, d); err != nil {
			return 0, err
		}
	}
	e.graph.Store(ng)
	e.mu.Lock()
	e.stats.Deltas++
	e.mu.Unlock()
	if e.cfg.SnapshotPath != "" {
		segs, err := snapshot.ListDeltas(e.cfg.SnapshotPath)
		if err == nil && len(segs) > e.cfg.CompactSegments {
			if _, err := snapshot.CompactSnapshot(e.cfg.SnapshotPath, ng); err == nil {
				// The overlay was folded into a fresh base on disk; serve the
				// flattened CSR in memory too.
				e.graph.Store(ng.Compact())
			} else {
				e.countStoreError()
			}
		}
	}
	return ng.Version(), nil
}

// Name returns the graph's workspace name ("" for a standalone engine).
func (e *Engine) Name() string { return e.cfg.Name }

// BurnIn returns the burn-in applied to every recorded trajectory.
func (e *Engine) BurnIn() int { return e.burnIn }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.stats
	snap.TasksByKind = maps.Clone(e.stats.TasksByKind)
	return snap
}

// countStoreError bumps the store-error counter under the lock.
func (e *Engine) countStoreError() {
	e.mu.Lock()
	e.stats.StoreErrors++
	e.mu.Unlock()
}
