package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/motif"
	"repro/internal/sizeest"
	"repro/internal/store"
)

// estimateQuery is one estimation question on the wire: the task kind plus
// its parameters. It appears as the top level of a single-query POST
// /estimate body and as each element of a batch's "queries" array.
type estimateQuery struct {
	// Graph names the workspace graph to query; empty addresses the
	// workspace's only graph. In a batch, every query must agree on the
	// graph — a trajectory is a walk over one graph.
	Graph string `json:"graph,omitempty"`
	// Kind selects the estimation task: "pairs" (default), "size",
	// "census" or "motif".
	Kind string `json:"kind,omitempty"`
	// Pairs lists the queried label pairs as [t1, t2] arrays (kinds
	// "pairs" and "motif").
	Pairs [][2]int `json:"pairs"`
	// Motif is the motif shape for kind "motif": "wedges" or "triangles".
	Motif string `json:"motif,omitempty"`
	// Top bounds how many census rows kind "census" returns (0 = all).
	Top int `json:"top,omitempty"`
	// Variant is the mixing measure for kind "assortativity": "degree"
	// (default) or "label".
	Variant string `json:"variant,omitempty"`
}

// estimateRequest is the POST /estimate body: one query (the historical
// shape, fields inline) or a batch (the "queries" array), plus the shared
// trajectory configuration.
type estimateRequest struct {
	estimateQuery
	// Queries, when non-empty, makes the request a batch: every query is
	// answered from ONE shared trajectory of this graph. The inline
	// kind/pairs/motif/top fields must then be absent.
	Queries []estimateQuery `json:"queries,omitempty"`
	// Budget, Walkers, Seed, MaxCost mirror Query; they configure the
	// (single) trajectory the request is served from.
	Budget  int   `json:"budget,omitempty"`
	Walkers int   `json:"walkers,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	MaxCost int64 `json:"max_cost,omitempty"`
}

// pairAnswerJSON is one pair's row in the kind="pairs" response.
type pairAnswerJSON struct {
	T1        int                `json:"t1"`
	T2        int                `json:"t2"`
	Estimates map[string]float64 `json:"estimates"`
}

// ciJSON renders a between-walker confidence interval; omitted when the
// recording was serial.
type ciJSON struct {
	Low  float64 `json:"low"`
	High float64 `json:"high"`
}

func ciPtr(ci estimate.CI) *ciJSON {
	if !ci.Valid() {
		return nil
	}
	return &ciJSON{Low: ci.Low, High: ci.High}
}

// sizeJSON is the kind="size" result.
type sizeJSON struct {
	Nodes      float64 `json:"nodes"`
	Edges      float64 `json:"edges"`
	MeanDegree float64 `json:"mean_degree"`
	Collisions int     `json:"collisions"`
	NodesCI    *ciJSON `json:"nodes_ci,omitempty"`
	EdgesCI    *ciJSON `json:"edges_ci,omitempty"`
}

// censusRowJSON is one row of the kind="census" result.
type censusRowJSON struct {
	T1       int     `json:"t1"`
	T2       int     `json:"t2"`
	Estimate float64 `json:"estimate"`
	Hits     int     `json:"hits"`
}

// motifRowJSON is one row of the kind="motif" result; t1/t2 are absent on
// the unlabeled row.
type motifRowJSON struct {
	T1       *int    `json:"t1,omitempty"`
	T2       *int    `json:"t2,omitempty"`
	Estimate float64 `json:"estimate"`
	CI       *ciJSON `json:"ci,omitempty"`
}

// motifJSON is the kind="motif" result.
type motifJSON struct {
	Shape string         `json:"shape"`
	Rows  []motifRowJSON `json:"rows"`
}

// assortJSON is the kind="assortativity" result.
type assortJSON struct {
	Variant     string  `json:"variant"`
	Coefficient float64 `json:"coefficient"`
	Used        int     `json:"used"`
	Skipped     int     `json:"skipped"`
	CI          *ciJSON `json:"ci,omitempty"`
}

// estimateResponse is one answered query. Exactly one of
// Pairs/Size/Census/Motif is populated, per the request kind — or Error,
// for a batch member whose replay failed.
type estimateResponse struct {
	Graph    string           `json:"graph,omitempty"`
	Kind     string           `json:"kind"`
	Pairs    []pairAnswerJSON `json:"pairs,omitempty"`
	Size     *sizeJSON        `json:"size,omitempty"`
	Census   []censusRowJSON  `json:"census,omitempty"`
	Motif    *motifJSON       `json:"motif,omitempty"`
	Assort   *assortJSON      `json:"assortativity,omitempty"`
	Error    string           `json:"error,omitempty"`
	APICalls int64            `json:"api_calls"`
	Charged  int64            `json:"charged"`
	CacheHit bool             `json:"cache_hit"`
	SharedBy int              `json:"shared_by"`
	Walkers  int              `json:"walkers"`
	Samples  int              `json:"samples"`
	// GraphVersion is the delta-log version of the graph state the answer
	// reflects; StaleSteps is how many trajectory steps an incremental
	// top-up re-recorded to produce it (0 for one-piece recordings).
	GraphVersion uint64 `json:"graph_version"`
	StaleSteps   int    `json:"stale_steps"`
	// TrajectoryKey is the store spelling of the trajectory that served the
	// answer (e.g. "b500_w4_s1_g0.osnt") — the name a replication peer pulls
	// via GET /trajectories/{graph}/{key}.
	TrajectoryKey string `json:"trajectory_key,omitempty"`
}

// batchResponse is the POST /estimate response for a batch request: one
// answer per query, in query order, all replayed from one trajectory.
type batchResponse struct {
	Graph   string             `json:"graph,omitempty"`
	Answers []estimateResponse `json:"answers"`
}

// graphInfoJSON is one row of the GET /graphs listing.
type graphInfoJSON struct {
	Name               string           `json:"name"`
	Nodes              int              `json:"nodes"`
	Edges              int64            `json:"edges"`
	BurnIn             int              `json:"burn_in"`
	GraphVersion       uint64           `json:"graph_version"`
	CachedTrajectories int              `json:"cached_trajectories"`
	CachedBytes        int64            `json:"cached_bytes"`
	Queries            int64            `json:"queries"`
	CacheHits          int64            `json:"cache_hits"`
	Recordings         int64            `json:"recordings"`
	StoreLoads         int64            `json:"store_loads"`
	UpstreamCalls      int64            `json:"upstream_api_calls"`
	Deltas             int64            `json:"deltas"`
	TopUps             int64            `json:"topups"`
	TopUpSavedCalls    int64            `json:"topup_saved_calls"`
	Imports            int64            `json:"imports"`
	TasksByKind        map[string]int64 `json:"tasks_by_kind,omitempty"`
}

// trajectoriesResponse is the GET /trajectories/{graph} body.
type trajectoriesResponse struct {
	Graph string `json:"graph"`
	// Keys are the graph's exportable trajectory keys in their .osnt
	// spelling, sorted.
	Keys []string `json:"keys"`
}

// graphsResponse is the GET /graphs body.
type graphsResponse struct {
	Graphs          []graphInfoJSON `json:"graphs"`
	CacheBytesUsed  int64           `json:"cache_bytes_used"`
	CacheByteBudget int64           `json:"cache_byte_budget"`
}

// loadGraphRequest is the PUT /graphs/{name} body. All fields are
// optional: an empty path resolves to <graphs dir>/<name>.osnb, and zero
// engine settings inherit the workspace defaults.
type loadGraphRequest struct {
	// Path is the .osnb snapshot to load.
	Path string `json:"path,omitempty"`
	// Budget, Walkers, BurnIn, Seed override the workspace's default
	// engine settings for this graph (see GraphOptions).
	Budget  int   `json:"budget,omitempty"`
	Walkers int   `json:"walkers,omitempty"`
	BurnIn  int   `json:"burnin,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
}

// loadGraphResponse is the PUT /graphs/{name} body on success.
type loadGraphResponse struct {
	Name   string `json:"name"`
	Nodes  int    `json:"nodes"`
	Edges  int64  `json:"edges"`
	BurnIn int    `json:"burn_in"`
	// WarmTrajectories is how many persisted .osnt trajectories were
	// reloaded into the new graph's cache.
	WarmTrajectories int `json:"warm_trajectories"`
}

// patchGraphRequest is the PATCH /graphs/{name} body: an edge delta to
// apply to the served graph.
type patchGraphRequest struct {
	// Add lists edges to append as [u, v] node-id arrays.
	Add [][2]int `json:"add,omitempty"`
	// Del lists edges to delete as [u, v] node-id arrays.
	Del [][2]int `json:"del,omitempty"`
}

// patchGraphResponse is the PATCH /graphs/{name} body on success.
type patchGraphResponse struct {
	Name string `json:"name"`
	// Version is the graph's new delta-log version; subsequent estimates at
	// this version report it as graph_version.
	Version uint64 `json:"graph_version"`
	Nodes   int    `json:"nodes"`
	Edges   int64  `json:"edges"`
	Added   int    `json:"added"`
	Deleted int    `json:"deleted"`
}

// healthResponse is the GET /healthz body: liveness plus workspace-wide
// counters (per-graph detail lives under GET /graphs).
type healthResponse struct {
	Status string `json:"status"`
	// Ready is false until every configured graph has finished loading (see
	// Workspace.ExpectGraphs); probers must not route traffic to an unready
	// replica even though the listener answers.
	Ready           bool  `json:"ready"`
	Graphs          int   `json:"graphs"`
	Queries         int64 `json:"queries"`
	CacheHits       int64 `json:"cache_hits"`
	Recordings      int64 `json:"recordings"`
	StoreLoads      int64 `json:"store_loads"`
	StoreSaves      int64 `json:"store_saves"`
	StoreErrors     int64 `json:"store_errors"`
	UpstreamCalls   int64 `json:"upstream_api_calls"`
	Deltas          int64 `json:"deltas"`
	TopUps          int64 `json:"topups"`
	TopUpSavedCalls int64 `json:"topup_saved_calls"`
	Imports         int64 `json:"imports"`
	CacheBytesUsed  int64 `json:"cache_bytes_used"`
	CacheByteBudget int64 `json:"cache_byte_budget"`
	UptimeSec       int64 `json:"uptime_seconds"`
}

// NewHandler exposes a Workspace as an HTTP JSON API:
//
//	POST   /estimate       {"graph": "pokec", "kind": "pairs", "pairs": [[1,2]], ...}
//	                       {"graph": "pokec", "queries": [{"kind": "size"}, {"kind": "census", "top": 10}], ...}
//	GET    /graphs         list the served graphs with cache and query stats
//	PUT    /graphs/{name}  load a .osnb snapshot as a new graph (409 if the name is taken)
//	PATCH  /graphs/{name}  apply an edge delta {"add": [[u,v],...], "del": [[u,v],...]} (404 if unknown)
//	DELETE /graphs/{name}  unload a graph, flushing its dirty trajectories (404 if unknown)
//	GET    /trajectories/{graph}        list the graph's exportable trajectory keys
//	GET    /trajectories/{graph}/{key}  the raw .osnt bytes of one trajectory (replication pull)
//	PUT    /trajectories/{graph}/{key}  admit verified .osnt bytes from a peer (replication push)
//	GET    /methods        the estimator names a "pairs" answer carries, plus the task kinds
//	GET    /healthz        liveness plus workspace counters
//
// Queries of different kinds at one (budget, walkers, seed) configuration
// of one graph share a single recorded trajectory, so a mixed-kind batch
// costs the API calls of one walk. Batches cannot mix graphs (400): a
// trajectory is a walk over one graph.
func NewHandler(ws *Workspace) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		var req estimateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
			return
		}
		if len(req.Queries) > 0 {
			handleBatch(ws, w, r, req)
			return
		}
		q, ok := buildQuery(w, req.estimateQuery, req)
		if !ok {
			return
		}
		ans, err := ws.Estimate(r.Context(), req.Graph, q)
		if err != nil {
			writeEstimateError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, renderAnswer(req.Graph, ans))
	})

	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		infos := ws.List()
		resp := graphsResponse{Graphs: make([]graphInfoJSON, 0, len(infos)), CacheByteBudget: ws.CacheBudget()}
		for _, gi := range infos {
			resp.CacheBytesUsed += gi.CachedBytes
			resp.Graphs = append(resp.Graphs, graphInfoJSON{
				Name:               gi.Name,
				Nodes:              gi.Nodes,
				Edges:              gi.Edges,
				BurnIn:             gi.BurnIn,
				GraphVersion:       gi.Version,
				CachedTrajectories: gi.CachedTrajectories,
				CachedBytes:        gi.CachedBytes,
				Queries:            gi.Stats.Queries,
				CacheHits:          gi.Stats.CacheHits,
				Recordings:         gi.Stats.Recordings,
				StoreLoads:         gi.Stats.StoreLoads,
				UpstreamCalls:      gi.Stats.UpstreamCalls,
				Deltas:             gi.Stats.Deltas,
				TopUps:             gi.Stats.TopUps,
				TopUpSavedCalls:    gi.Stats.TopUpSavedCalls,
				Imports:            gi.Stats.Imports,
				TasksByKind:        gi.Stats.TasksByKind,
			})
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("PUT /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !store.ValidGraphName(name) {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid graph name %q (want 1-64 of [A-Za-z0-9._-], starting alphanumeric)", name))
			return
		}
		var req loadGraphRequest
		if r.ContentLength != 0 {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
				return
			}
		}
		if _, err := ws.Graph(name); err == nil {
			// Fail the duplicate before reading a multi-megabyte snapshot;
			// AddGraph re-checks authoritatively under its reservation.
			writeEstimateError(w, r, fmt.Errorf("%w: %q", ErrGraphExists, name))
			return
		}
		path := req.Path
		if path == "" {
			if ws.GraphsDir() == "" {
				httpError(w, http.StatusBadRequest, "no graphs directory configured; the request body must carry a snapshot path")
				return
			}
			path = filepath.Join(ws.GraphsDir(), name+snapshot.Ext)
		}
		g, err := snapshot.Load(path)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("loading snapshot: %v", err))
			return
		}
		opts := ws.cfg.Defaults
		// Remember where the graph came from, so PATCH deltas persist as
		// .osnd segments beside the base snapshot.
		opts.SnapshotPath = path
		if req.Budget > 0 {
			opts.Budget = req.Budget
		}
		if req.Walkers > 0 {
			opts.Walkers = req.Walkers
		}
		if req.BurnIn > 0 {
			opts.BurnIn = req.BurnIn
		}
		if req.Seed != 0 {
			opts.Seed = req.Seed
		}
		warmed, err := ws.AddGraph(name, g, &opts)
		if err != nil {
			writeEstimateError(w, r, err)
			return
		}
		engine, err := ws.Graph(name)
		if err != nil {
			writeEstimateError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, loadGraphResponse{
			Name:             name,
			Nodes:            g.NumNodes(),
			Edges:            g.NumEdges(),
			BurnIn:           engine.BurnIn(),
			WarmTrajectories: warmed,
		})
	})

	mux.HandleFunc("PATCH /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var req patchGraphRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
			return
		}
		var d graph.Delta
		for _, e := range req.Add {
			d.Adds = append(d.Adds, graph.Edge{U: graph.Node(e[0]), V: graph.Node(e[1])})
		}
		for _, e := range req.Del {
			d.Dels = append(d.Dels, graph.Edge{U: graph.Node(e[0]), V: graph.Node(e[1])})
		}
		version, err := ws.ApplyDelta(name, d)
		if err != nil {
			writeEstimateError(w, r, err)
			return
		}
		engine, err := ws.Graph(name)
		if err != nil {
			writeEstimateError(w, r, err)
			return
		}
		g := engine.Graph()
		writeJSON(w, http.StatusOK, patchGraphResponse{
			Name:    name,
			Version: version,
			Nodes:   g.NumNodes(),
			Edges:   g.NumEdges(),
			Added:   len(d.Adds),
			Deleted: len(d.Dels),
		})
	})

	mux.HandleFunc("DELETE /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if err := ws.RemoveGraph(name); err != nil {
			writeEstimateError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "unloaded", "name": name})
	})

	mux.HandleFunc("GET /trajectories/{graph}", func(w http.ResponseWriter, r *http.Request) {
		graphName := r.PathValue("graph")
		keys, err := ws.TrajectoryKeys(graphName)
		if err != nil {
			writeEstimateError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, trajectoriesResponse{Graph: graphName, Keys: keys})
	})

	mux.HandleFunc("GET /trajectories/{graph}/{key}", func(w http.ResponseWriter, r *http.Request) {
		raw, recorded, err := ws.ExportTrajectory(r.PathValue("graph"), r.PathValue("key"))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				httpError(w, http.StatusNotFound, err.Error())
				return
			}
			writeEstimateError(w, r, err)
			return
		}
		if !recorded.IsZero() {
			w.Header().Set("Last-Modified", recorded.UTC().Format(http.TimeFormat))
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(raw)
	})

	mux.HandleFunc("PUT /trajectories/{graph}/{key}", func(w http.ResponseWriter, r *http.Request) {
		graphName, key := r.PathValue("graph"), r.PathValue("key")
		// Trajectories are megabytes, not gigabytes; bound the body so a
		// broken peer cannot exhaust memory.
		raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
			return
		}
		// Last-Modified carries the exporter's recording time, so the
		// trajectory keeps its age; without a valid one it ages from now.
		recorded, err := http.ParseTime(r.Header.Get("Last-Modified"))
		if err != nil {
			recorded = time.Time{}
		}
		if err := ws.ImportTrajectory(graphName, key, raw, recorded); err != nil {
			writeEstimateError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "imported", "graph": graphName, "key": key})
	})

	mux.HandleFunc("GET /methods", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{
			"methods": Methods(),
			"kinds":   Kinds(),
		})
	})

	// Method-less fallbacks keep the documented error contract — every
	// error body is {"error": ...} — for wrong-method requests, which the
	// method-qualified patterns above would otherwise answer with the Go
	// mux's plain-text 405.
	for path, allow := range map[string]string{
		"/estimate":                   "POST only",
		"/graphs":                     "GET only",
		"/graphs/{name}":              "PUT, PATCH or DELETE only",
		"/trajectories/{graph}":       "GET only",
		"/trajectories/{graph}/{key}": "GET or PUT only",
		"/methods":                    "GET only",
		"/healthz":                    "GET only",
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			httpError(w, http.StatusMethodNotAllowed, allow)
		})
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		infos := ws.List()
		resp := healthResponse{
			Status:          "ok",
			Ready:           ws.Ready(),
			Graphs:          len(infos),
			CacheByteBudget: ws.CacheBudget(),
			UptimeSec:       int64(time.Since(start).Seconds()),
		}
		for _, gi := range infos {
			resp.Queries += gi.Stats.Queries
			resp.CacheHits += gi.Stats.CacheHits
			resp.Recordings += gi.Stats.Recordings
			resp.StoreLoads += gi.Stats.StoreLoads
			resp.StoreSaves += gi.Stats.StoreSaves
			resp.StoreErrors += gi.Stats.StoreErrors
			resp.UpstreamCalls += gi.Stats.UpstreamCalls
			resp.Deltas += gi.Stats.Deltas
			resp.TopUps += gi.Stats.TopUps
			resp.TopUpSavedCalls += gi.Stats.TopUpSavedCalls
			resp.Imports += gi.Stats.Imports
			resp.CacheBytesUsed += gi.CachedBytes
		}
		writeJSON(w, http.StatusOK, resp)
	})

	return mux
}

// handleBatch answers the batch form of POST /estimate: every query rides
// one trajectory of one graph. Mixed-graph batches are rejected with 400
// before any API spend.
func handleBatch(ws *Workspace, w http.ResponseWriter, r *http.Request, req estimateRequest) {
	if req.Kind != "" || len(req.estimateQuery.Pairs) > 0 || req.Motif != "" || req.Top != 0 || req.Variant != "" {
		httpError(w, http.StatusBadRequest, "a batch request puts kind/pairs/motif/top/variant inside \"queries\", not at the top level")
		return
	}
	graphName := req.Graph
	qs := make([]Query, 0, len(req.Queries))
	for i, eq := range req.Queries {
		if eq.Graph != "" {
			if graphName == "" {
				graphName = eq.Graph
			} else if eq.Graph != graphName {
				httpError(w, http.StatusBadRequest, fmt.Sprintf(
					"mixed-graph batch: query %d names graph %q but the batch is against %q — a batch shares one trajectory, which is a walk over one graph; split the batch per graph",
					i, eq.Graph, graphName))
				return
			}
		}
		q, ok := buildQuery(w, eq, req)
		if !ok {
			return
		}
		qs = append(qs, q)
	}
	answers, err := ws.EstimateBatch(r.Context(), graphName, qs)
	if err != nil {
		writeEstimateError(w, r, err)
		return
	}
	resp := batchResponse{Graph: graphName, Answers: make([]estimateResponse, 0, len(answers))}
	for _, ans := range answers {
		resp.Answers = append(resp.Answers, renderAnswer("", ans))
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildQuery maps one wire query plus the request's trajectory
// configuration onto an engine Query, writing a 400 and returning ok=false
// on validation failure.
func buildQuery(w http.ResponseWriter, eq estimateQuery, req estimateRequest) (Query, bool) {
	q := Query{
		Kind:    eq.Kind,
		Motif:   eq.Motif,
		Top:     eq.Top,
		Variant: eq.Variant,
		Budget:  req.Budget,
		Walkers: req.Walkers,
		Seed:    req.Seed,
		MaxCost: req.MaxCost,
	}
	if (eq.Kind == "" || eq.Kind == "pairs") && len(eq.Pairs) == 0 {
		httpError(w, http.StatusBadRequest, "need at least one [t1,t2] pair")
		return q, false
	}
	for _, p := range eq.Pairs {
		if p[0] < 0 || p[1] < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("negative label in pair %v", p))
			return q, false
		}
		q.Pairs = append(q.Pairs, graph.LabelPair{T1: graph.Label(p[0]), T2: graph.Label(p[1])})
	}
	return q, true
}

// writeEstimateError maps workspace/engine errors onto HTTP statuses: 400
// bad query, 402 budget, 404 unknown graph, 409 load conflict, 422
// estimation failure, 499 client gone, 500 otherwise.
func writeEstimateError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueryBudget):
		status = http.StatusPaymentRequired
	case errors.Is(err, ErrBadQuery), errors.Is(err, ErrBadTrajectory):
		status = http.StatusBadRequest
	case errors.Is(err, ErrUnknownGraph):
		status = http.StatusNotFound
	case errors.Is(err, ErrGraphExists):
		status = http.StatusConflict
	case errors.Is(err, ErrEstimation):
		status = http.StatusUnprocessableEntity
	case r.Context().Err() != nil:
		status = 499 // client closed request
	}
	httpError(w, status, err.Error())
}

// renderAnswer maps an engine Answer onto the kind-specific wire schema.
func renderAnswer(graphName string, ans *Answer) estimateResponse {
	resp := estimateResponse{
		Graph:         graphName,
		Kind:          ans.Kind,
		APICalls:      ans.APICalls,
		Charged:       ans.Charged,
		CacheHit:      ans.CacheHit,
		SharedBy:      ans.SharedBy,
		Walkers:       ans.Walkers,
		Samples:       ans.Samples,
		GraphVersion:  ans.GraphVersion,
		StaleSteps:    ans.StaleSteps,
		TrajectoryKey: ans.StoreKey,
	}
	if ans.Err != nil {
		resp.Error = ans.Err.Error()
		return resp
	}
	if ans.Pairs != nil {
		resp.Pairs = make([]pairAnswerJSON, 0, len(ans.Pairs))
		for _, pa := range ans.Pairs {
			resp.Pairs = append(resp.Pairs, pairAnswerJSON{
				T1:        int(pa.Pair.T1),
				T2:        int(pa.Pair.T2),
				Estimates: pa.Estimates,
			})
		}
		return resp
	}
	switch res := ans.Result.(type) {
	case sizeest.Result:
		resp.Size = &sizeJSON{
			Nodes:      res.Nodes,
			Edges:      res.Edges,
			MeanDegree: res.MeanDegree,
			Collisions: res.Collisions,
			NodesCI:    ciPtr(res.NodesCI),
			EdgesCI:    ciPtr(res.EdgesCI),
		}
	case core.CensusResult:
		resp.Census = make([]censusRowJSON, 0, len(res.Pairs))
		for _, pe := range res.Pairs {
			resp.Census = append(resp.Census, censusRowJSON{
				T1:       int(pe.Pair.T1),
				T2:       int(pe.Pair.T2),
				Estimate: pe.Estimate,
				Hits:     pe.Hits,
			})
		}
	case motif.TaskResult:
		m := &motifJSON{Shape: res.Shape, Rows: make([]motifRowJSON, 0, len(res.Rows))}
		for _, row := range res.Rows {
			rj := motifRowJSON{Estimate: row.Estimate, CI: ciPtr(row.CI)}
			if row.Pair != nil {
				t1, t2 := int(row.Pair.T1), int(row.Pair.T2)
				rj.T1, rj.T2 = &t1, &t2
			}
			m.Rows = append(m.Rows, rj)
		}
		resp.Motif = m
	case core.AssortativityResult:
		resp.Assort = &assortJSON{
			Variant:     res.Variant,
			Coefficient: res.Coefficient,
			Used:        res.Used,
			Skipped:     res.Skipped,
			CI:          ciPtr(res.CI),
		}
	}
	return resp
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
