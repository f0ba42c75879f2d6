// Command serve runs the estimation query service: an HTTP JSON API over a
// workspace of named graphs, each behind the restricted access model,
// answering many concurrent estimation queries from shared random-walk
// trajectories. Every query names an estimation-task kind — label-pair
// counts ("pairs", the default), graph size ("size"), a label-pair census
// ("census") or motif counts ("motif") — and one recorded walk serves EVERY
// kind any client asks about at a given (budget, walkers, seed)
// configuration of a graph: the kind is not part of the trajectory cache
// key, so a mixed-kind batch costs the API calls of a single estimate.
//
// With -store, completed trajectories persist as .osnt files and are
// reloaded on restart: the first query after a restart is served from disk
// at zero API spend, bit-identical to the pre-restart answer. Graphs can be
// loaded and unloaded at runtime through PUT/DELETE /graphs/{name}.
// SIGINT/SIGTERM drain in-flight requests (up to -drain) and flush dirty
// trajectories before exiting.
//
// Usage:
//
//	serve -dataset pokec -scale 0.5 -addr :8080
//	serve -edges graph.txt -labels labels.txt -budget 0.05 -walkers 4
//	serve -graph pokec.osnb -store /var/lib/osn/store -budget 0.01
//	serve -graphs /var/lib/osn/graphs -store /var/lib/osn/store -cache-bytes 268435456
//
// Then:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/graphs
//	curl -s -X PUT localhost:8080/graphs/pokec -d '{"path": "pokec.osnb"}'
//	curl -s -X POST localhost:8080/estimate -d '{"graph": "pokec", "pairs": [[1,2],[2,3]]}'
//	curl -s -X POST localhost:8080/estimate -d '{"graph": "pokec", "queries": [{"kind": "size"}, {"kind": "census", "top": 10}]}'
//	curl -s -X DELETE localhost:8080/graphs/pokec
//
// See docs/OPERATIONS.md for the full deployment guide.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only on -pprof
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "synthetic stand-in to generate (facebook, googleplus, pokec, orkut, livejournal)")
		scale      = flag.Float64("scale", 1.0, "stand-in scale factor")
		edges      = flag.String("edges", "", "edge list file (alternative to -dataset)")
		labels     = flag.String("labels", "", "label file (with -edges)")
		graphF     = flag.String("graph", "", ".osnb binary snapshot (alternative to -dataset/-edges)")
		graphsDir  = flag.String("graphs", "", "directory of .osnb snapshots: every snapshot is served under its basename, and PUT /graphs/{name} resolves here")
		storeDir   = flag.String("store", "", "persistent trajectory store directory (.osnt files); empty = memory-only cache")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "byte budget across all cached trajectories (0 = unlimited); over it, the globally LRU trajectory is persisted and evicted")
		addr       = flag.String("addr", ":8080", "listen address")
		budget     = flag.Float64("budget", 0.05, "default trajectory API budget as a fraction of |V| (applied per graph at startup)")
		walkers    = flag.Int("walkers", 1, "default concurrent walkers per trajectory recording")
		burnin     = flag.Int("burnin", 0, "walk burn-in steps (0 = measure mixing time per graph at load)")
		seed       = flag.Int64("seed", 1, "default trajectory seed")
		window     = flag.Duration("window", 25*time.Millisecond, "batching window: queries arriving within it share one recording")
		ttl        = flag.Duration("ttl", 10*time.Minute, "freshness bound on trajectories recorded through -source-url, counted from the recording across reloads and restarts (0 = never expire); no effect on in-memory graphs")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		compactSeg = flag.Int("compact-segments", 0, "compact a graph's .osnd delta log into its .osnb once it exceeds this many segments (0 = default 8)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")

		sourceURL     = flag.String("source-url", "", "record against a live OSN HTTP API at this base URL (endpoints /meta, /neighbors/{id}, /degree/{id}, /labels/{id}) instead of the in-memory graph")
		sourceCache   = flag.String("source-cache", "", "persistent .osnc response cache for -source-url; an interrupted recording resumes from it without re-paying the upstream")
		sourceRate    = flag.Float64("source-rate", 0, "client-side rate limit toward -source-url in requests/second (0 = unlimited)")
		sourceBurst   = flag.Float64("source-burst", 1, "token-bucket burst size for -source-rate")
		sourceRetries = flag.Int("source-retries", 4, "retries per upstream request on transient failures (-1 = none)")
		sourceTimeout = flag.Duration("source-timeout", 10*time.Second, "per-request timeout toward -source-url")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
		os.Exit(2)
	}
	inputs := 0
	for _, set := range []bool{*dataset != "", *edges != "", *graphF != "", *graphsDir != ""} {
		if set {
			inputs++
		}
	}
	if inputs != 1 {
		fmt.Fprintln(os.Stderr, "serve: need exactly one of -dataset, -edges, -graph, -graphs")
		flag.Usage()
		os.Exit(2)
	}
	if *graphF != "" && *labels != "" {
		fail("-graph snapshots embed labels; drop -labels")
	}
	if *budget <= 0 {
		fail("-budget must be positive (a fraction of |V|), got %g", *budget)
	}
	if *walkers < 1 {
		fail("-walkers must be at least 1, got %d", *walkers)
	}
	if *burnin < 0 {
		fail("-burnin must be non-negative, got %d", *burnin)
	}
	if *scale <= 0 {
		fail("-scale must be positive, got %g", *scale)
	}
	if *window < 0 || *ttl < 0 {
		fail("-window and -ttl must be non-negative")
	}
	if *cacheBytes < 0 {
		fail("-cache-bytes must be non-negative, got %d", *cacheBytes)
	}
	if *drain <= 0 {
		fail("-drain must be positive, got %s", *drain)
	}
	if *compactSeg < 0 {
		fail("-compact-segments must be non-negative, got %d", *compactSeg)
	}
	if *pprofAddr != "" {
		if _, _, err := net.SplitHostPort(*pprofAddr); err != nil {
			fail("-pprof must be a host:port listen address, got %q: %v", *pprofAddr, err)
		}
	}
	if *sourceURL == "" {
		for flagName, set := range map[string]bool{
			"-source-cache": *sourceCache != "", "-source-rate": *sourceRate != 0,
			"-source-retries": *sourceRetries != 4, "-source-timeout": *sourceTimeout != 10*time.Second,
		} {
			if set {
				fail("%s needs -source-url", flagName)
			}
		}
	}
	srcCfg := httpsrc.Config{
		BaseURL:    *sourceURL,
		CachePath:  *sourceCache,
		Rate:       *sourceRate,
		Burst:      *sourceBurst,
		MaxRetries: *sourceRetries,
		Timeout:    *sourceTimeout,
	}
	if *sourceURL != "" {
		if *sourceRate < 0 {
			fail("-source-rate must be non-negative, got %g", *sourceRate)
		}
		if *sourceBurst < 0 {
			fail("-source-burst must be non-negative, got %g", *sourceBurst)
		}
		if *sourceRetries < -1 {
			fail("-source-retries must be >= -1 (-1 disables retries), got %d", *sourceRetries)
		}
		if *sourceTimeout < 0 {
			fail("-source-timeout must be non-negative, got %s", *sourceTimeout)
		}
		if err := httpsrc.ValidateConfig(srcCfg); err != nil {
			fail("-source-url: %v", err)
		}
		if *sourceCache != "" {
			// Pre-flight the cache path before dialing the upstream, so a
			// misconfigured deployment fails fast with exit 2.
			if err := checkCachePath(*sourceCache); err != nil {
				fail("-source-cache %s is not writable: %v", *sourceCache, err)
			}
		}
	}

	var st *store.Dir
	if *storeDir != "" {
		var err error
		st, err = store.NewDir(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}
	// With -source-url, every recording meters the live upstream through one
	// shared client (its .osnc cache and rate limiter span all sessions),
	// and /healthz readiness tracks the upstream's reachability.
	var src *httpsrc.Client
	if *sourceURL != "" {
		var err error
		src, err = httpsrc.New(srcCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		defer src.Close()
		log.Printf("upstream source %s: |V|=%d |E|=%d, cache=%s (%d responses)",
			*sourceURL, src.NumNodes(), src.NumEdges(), *sourceCache, src.Cache().Len())
	}
	wcfg := serve.WorkspaceConfig{
		Store:      st,
		CacheBytes: *cacheBytes,
		GraphsDir:  *graphsDir,
		Defaults: serve.GraphOptions{
			BurnIn:          *burnin,
			Walkers:         *walkers,
			Seed:            *seed,
			BatchWindow:     *window,
			TTL:             *ttl,
			CompactSegments: *compactSeg,
		},
	}
	if src != nil {
		wcfg.Defaults.SourceFactory = func(*repro.Graph) osn.Source { return src }
		wcfg.SourceReady = src.Healthy
	}
	ws, err := serve.NewWorkspace(wcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	// addGraph loads one graph into the workspace, resolving the fractional
	// -budget against that graph's size. snapPath, when non-empty, is the
	// graph's .osnb on disk: PATCH deltas then persist beside it as .osnd
	// segments (generated and text-loaded graphs have no snapshot to anchor
	// a delta log to, so their deltas live in memory only).
	addGraph := func(name string, g *repro.Graph, snapPath string) {
		if src != nil && g.NumNodes() != src.NumNodes() {
			fmt.Fprintf(os.Stderr, "serve: graph %q has %d nodes but the upstream at %s serves %d — recordings need a matching skeleton snapshot\n",
				name, g.NumNodes(), *sourceURL, src.NumNodes())
			os.Exit(1)
		}
		callBudget := int(*budget * float64(g.NumNodes()))
		if callBudget < 100 {
			callBudget = 100
		}
		opts := ws.Defaults()
		opts.Budget = callBudget
		opts.SnapshotPath = snapPath
		warmed, err := ws.AddGraph(name, g, &opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		engine, _ := ws.Graph(name)
		burn := 0
		if engine != nil {
			burn = engine.BurnIn()
		}
		log.Printf("graph %q: |V|=%d |E|=%d burn-in=%d budget=%d calls, %d trajectories warm-started",
			name, g.NumNodes(), g.NumEdges(), burn, callBudget, warmed)
	}

	// Declare the configured graph count before loading: /healthz reports
	// ready=false until every expected graph is in, so a gateway prober
	// never routes to a replica that is still loading snapshots.
	switch {
	case *dataset != "":
		ws.ExpectGraphs(1)
		g, err := repro.GenerateStandIn(*dataset, *scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		addGraph(*dataset, g, "")
	case *graphF != "":
		ws.ExpectGraphs(1)
		start := time.Now()
		g, err := repro.LoadSnapshot(*graphF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		name := strings.TrimSuffix(filepath.Base(*graphF), filepath.Ext(*graphF))
		log.Printf("loaded %s in %.3fs", *graphF, time.Since(start).Seconds())
		addGraph(name, g, *graphF)
	case *edges != "":
		ws.ExpectGraphs(1)
		g, err := repro.LoadGraph(*edges, *labels)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		addGraph("default", g, "")
	case *graphsDir != "":
		snaps, err := filepath.Glob(filepath.Join(*graphsDir, "*.osnb"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		sort.Strings(snaps)
		ws.ExpectGraphs(len(snaps))
		for _, snap := range snaps {
			g, err := repro.LoadSnapshot(snap)
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				os.Exit(1)
			}
			addGraph(strings.TrimSuffix(filepath.Base(snap), filepath.Ext(snap)), g, snap)
		}
		if len(snaps) == 0 {
			log.Printf("no .osnb snapshots in %s; load graphs at runtime with PUT /graphs/{name}", *graphsDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: -pprof:", err)
			os.Exit(1)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	storeMsg := "memory-only"
	if st != nil {
		storeMsg = st.Root()
	}
	log.Printf("workspace: %d graphs, store=%s, cache-bytes=%d, window=%s, ttl=%s, drain=%s",
		len(ws.List()), storeMsg, *cacheBytes, *window, *ttl, *drain)
	log.Printf("listening on %s", ln.Addr())
	if err := serve.Run(ctx, ln, serve.NewHandler(ws), ws, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	log.Printf("drained and flushed; bye")
}

// checkCachePath checks that the -source-cache path will open, and leaves
// it as it found it: an empty file there would not be a valid cache. An
// existing cache must open for appending. For a new one, atomicfile.Write
// runs with a fill that fails, which creates a temp file beside the path
// (the step that creating the cache takes first) and removes it again.
func checkCachePath(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		return f.Close()
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	errDryRun := errors.New("dry run")
	if err := atomicfile.Write(path, func(io.Writer) error { return errDryRun }); !errors.Is(err, errDryRun) {
		return err
	}
	return nil
}
