package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
	"repro/internal/serve"
	"repro/internal/store"
)

// Set-up runs at least minSetups times and until minSetupTime has been
// spent (at most maxSetups times), so that the reported median is steady
// even when one set-up takes milliseconds.
const (
	minSetups    = 3
	maxSetups    = 200
	minSetupTime = 500 * time.Millisecond
)

// runWorkload measures one workload in this process: it generates the
// inputs, sets the topology up (several times, keeping the last), warms it
// up, measures one window (two in a traced run: untraced, then traced),
// checks the outputs, and derives the metrics.
func runWorkload(o options, w *workload) (*result, error) {
	in, err := prepare(w, o)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	res := &result{Workload: w.name, Trace: o.trace, Meta: newMeta(o), Metrics: make(map[string]metric)}
	res.Meta.LimitMs, res.Meta.TailLevel = w.limitMs, w.tailLevel
	res.Meta.Nodes, res.Meta.Edges = in.g.NumNodes(), in.g.NumEdges()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.workdir, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		up    *faultsim.Upstream
		crawl *crawlSources
		src   func(*graph.Graph) osn.Source
	)
	if w.crawl {
		up = faultsim.New(in.g)
		defer up.Close()
		up.SetSchedule(faultSchedule)
		var timing *sourceTiming
		if o.trace {
			timing = &sourceTiming{}
		}
		crawl = newCrawlSources(up.URL(), newSeedStream(in.root, "crawl"), timing)
		src = crawl.factory
	}

	// Set up repeatedly; the last topology serves the load.
	setupClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer setupClient.CloseIdleConnections()
	var c *cluster
	var setups []float64
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := stage(in, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, err = newCluster(w, in, dir, tr, src)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := c.prerecord(setupClient, in); err != nil {
			c.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
		if o.trace || len(setups) >= maxSetups || (len(setups) >= minSetups && spent >= minSetupTime) {
			break
		}
		c.close()
		setupClient.CloseIdleConnections()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer c.close()
	res.Meta.Setups = len(setups)
	res.set("setup_s", median(setups), "s")

	lg := newLoadgen(w, in, c.front.url, o.clients, tr)
	defer lg.close()
	measured := time.Duration(o.seconds * float64(time.Second))
	warm := min(3*time.Second, measured/5)
	res.Meta.WarmupS = warm.Seconds()
	lg.run(warm, false)

	// A traced run first measures an untraced window, the baseline of the
	// tracing overhead, then the traced one the layer metrics come from.
	windows := make([]*window, 0, 2)
	if o.trace {
		windows = append(windows, lg.run(measured, true))
		tr.on.Store(true)
	}
	watch := startWatcher(c)
	before := readCounters(c, crawl, up)
	win := lg.run(measured, true)
	after := readCounters(c, crawl, up)
	watch.stop()
	windows = append(windows, win)
	if o.trace {
		tr.on.Store(false)
	}

	var errs []string
	for _, wn := range windows {
		res.Attempted += wn.readsTried + wn.writesTried
		res.Failed += wn.readsFailed + wn.writesFailed
		errs = append(errs, wn.errs...)
	}
	if res.Failed > 0 {
		res.violate("%d requests failed, e.g. %v", res.Failed, errs)
	}
	userMetrics(res, w, win, watch, before, after)
	counterMetrics(res, w, in, win, before, after, lg.log)
	checkOutputs(res, w, in, c, lg, win, before, after)

	if o.trace {
		spans := tr.take()
		res.SpansFile = filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(res.SpansFile, spans); err != nil {
			return nil, err
		}
		if err := layerMetrics(res, w, in, c, spans, windows[0], win, watch, before, after); err != nil {
			return nil, err
		}
		checkReplayIdentity(res, in, c, lg.log)
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// counters is a snapshot of every counter the metrics difference over a
// window.
type counters struct {
	engine     serve.Stats
	gw         gateway.Stats
	src        httpsrc.Stats
	ledger     faultsim.Ledger
	neighbors  int64 // timed source-boundary calls (traced cold-crawl)
	labels     int64
	busyNs     int64
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	cpu        time.Duration
	maxRSSKB   int64
}

func readCounters(c *cluster, crawl *crawlSources, up *faultsim.Upstream) counters {
	k := counters{engine: c.engineTotals(), gw: c.gw.Stats()}
	if crawl != nil {
		k.src = crawl.stats()
		if t := crawl.timing; t != nil {
			k.neighbors, k.labels, k.busyNs = t.neighbors.Load(), t.labels.Load(), t.busyNs.Load()
		}
	}
	if up != nil {
		k.ledger = up.Ledger()
		k.ledger.PerNode = nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.mallocs, k.allocBytes, k.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		k.maxRSSKB = ru.Maxrss // kilobytes on Linux
	}
	return k
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// per divides a count by the answered reads (0 when none were answered).
func per(x float64, answered int) float64 {
	if answered == 0 {
		return 0
	}
	return x / float64(answered)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// userMetrics sets the end-to-end metrics from a window.
func userMetrics(res *result, w *workload, win *window, watch *watcher, before, after counters) {
	reads := sortedCopy(win.reads)
	res.Tail = tailAt(reads, w.tailLevel)
	res.set("latency_p50_ms", percentile(reads, 500), "ms")
	res.set("latency_tail_ms", res.Tail.Value, "ms")
	res.set("throughput_qps", float64(len(reads))/win.elapsed.Seconds(), "1/s")
	res.set("cpu_s_per_query", per((after.cpu-before.cpu).Seconds(), len(reads)), "s")
	// The median resident set over the window: the peak depends on when
	// the collector happens to run and spreads twice as wide across runs.
	res.set("rss_mb", median(watch.rssMB), "MB")
	if watch.rssErr != nil {
		res.violate("reading the resident set: %v", watch.rssErr)
	}
}

// counterMetrics sets the metrics read off counters over a window, which
// need no tracing: service-level ratios and the layers' work counts.
func counterMetrics(res *result, w *workload, in *inputs, win *window, before, after counters, log *answerLog) {
	n := len(win.reads)
	e0, e1 := before.engine, after.engine
	var over int
	for _, l := range win.reads {
		if l > w.limitMs {
			over++
		}
	}
	res.set("loadgen.slo_miss_ratio", ratio(float64(over)+float64(win.readsFailed), float64(win.readsTried)), "ratio")
	res.set("loadgen.error_ratio", ratio(float64(win.readsFailed+win.writesFailed), float64(win.readsTried+win.writesTried)), "ratio")
	writes := sortedCopy(win.writes)
	lags := sortedCopy(win.lags)
	res.set("loadgen.write_ms_p50", zeroNaN(percentile(writes, 500)), "ms")
	res.set("loadgen.write_ms_tail", zeroNaN(tailAt(writes, w.tailLevel).Value), "ms")
	res.set("loadgen.sched_lag_p99_ms", zeroNaN(percentile(lags, 990)), "ms")
	res.set("loadgen.estimate_nrmse", log.nrmse(in.truth), "ratio")

	res.set("gateway.retries", float64(after.gw.Retries-before.gw.Retries), "count")
	res.set("gateway.parked_ratio", ratio(float64(after.gw.Parked-before.gw.Parked), float64(after.gw.Routed-before.gw.Routed)), "ratio")

	calls := float64(e1.UpstreamCalls - e0.UpstreamCalls)
	saved := float64(e1.TopUpSavedCalls - e0.TopUpSavedCalls)
	res.set("serve.api_calls_per_query", per(calls, n), "count")
	res.set("serve.cache_hit_ratio", ratio(float64(e1.CacheHits-e0.CacheHits), float64(e1.Queries-e0.Queries)), "ratio")
	res.set("serve.store_loads_per_query", per(float64(e1.StoreLoads-e0.StoreLoads), n), "count")
	res.set("serve.recordings_per_query", per(float64(e1.Recordings-e0.Recordings), n), "count")
	res.set("serve.topups_per_query", per(float64(e1.TopUps-e0.TopUps), n), "count")
	res.set("serve.topup_saved_ratio", ratio(saved, saved+calls), "ratio")
	// Source-boundary calls: the engine's metered neighbor fetches; the
	// traced cold-crawl run replaces these with timed counts.
	res.set("osn.neighbors_calls_per_query", per(calls, n), "count")
	res.set("osn.labels_calls_per_query", 0, "count")
	res.set("osn.source_busy_ms_per_query", 0, "ms")

	l0, l1 := before.ledger, after.ledger
	res.set("faultsim.requests_per_query", per(float64(l1.Calls-l0.Calls), n), "count")
	res.set("faultsim.labels_share", ratio(float64(l1.Labels-l0.Labels), float64(l1.Calls-l0.Calls)), "ratio")
	res.set("faultsim.bytes_per_query", per(float64(l1.Bytes-l0.Bytes), n), "B")
	s0, s1 := before.src, after.src
	res.set("httpsrc.requests_per_fetch", ratio(float64(s1.UpstreamRequests-s0.UpstreamRequests), float64(s1.Fetches-s0.Fetches)), "ratio")
	res.set("httpsrc.retries_per_query", per(float64(s1.Retries-s0.Retries), n), "count")
	res.set("httpsrc.throttled_per_query", per(float64(s1.Throttled-s0.Throttled), n), "count")

	res.set("snapshot.segments_written", float64(e1.Deltas-e0.Deltas), "count")
	res.set("runtime.allocs_per_query", per(float64(after.mallocs-before.mallocs), n), "count")
	res.set("runtime.bytes_alloc_per_query", per(float64(after.allocBytes-before.allocBytes), n), "B")
	res.set("runtime.gc_pause_ms_total", float64(after.gcPauseNs-before.gcPauseNs)/1e6, "ms")
	res.set("runtime.peak_rss_mb", float64(after.maxRSSKB)/1024, "MB")
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// checkOutputs applies the workload's output checks.
func checkOutputs(res *result, w *workload, in *inputs, c *cluster, lg *loadgen, win *window, before, after counters) {
	if len(win.reads) == 0 {
		res.violate("no read was answered in the measured window")
		return
	}
	if nrmse := res.Metrics["loadgen.estimate_nrmse"].Value; math.IsNaN(nrmse) || math.IsInf(nrmse, 0) {
		res.violate("estimate NRMSE is %v", nrmse)
	}
	switch {
	case w.crawl:
		if win.maxAPICalls > int64(w.budget) {
			res.violate("an answer reports %d API calls, over the budget %d", win.maxAPICalls, w.budget)
		}
	case !w.churn:
		if calls := after.engine.UpstreamCalls - before.engine.UpstreamCalls; calls != 0 || win.recorded != 0 {
			res.violate("replay-only workload spent %d API calls on %d recordings in the measured window", calls, win.recorded)
		}
	default:
		if err := checkTopUpIdentity(w, in, c, lg); err != nil {
			res.violate("topped-up answer differs from a fresh recording: %v", err)
		}
	}
}

// checkTopUpIdentity asks for one churn key after the writer stopped — the
// answer replays a trajectory topped up across every delta — and compares
// it with a fresh recording of the same key on the final graph version.
func checkTopUpIdentity(w *workload, in *inputs, c *cluster, lg *loadgen) error {
	ans, err := postEstimate(lg.client, c.front.url, in.bodies[0], nil)
	if err != nil {
		return err
	}
	if err := checkBatch(ans, in); err != nil {
		return err
	}
	lg.log.add(ans)
	eng, err := c.replicas[0].ws.Graph(graphName)
	if err != nil {
		return err
	}
	final := eng.Graph()
	if v := ans.Answers[0].GraphVersion; v != final.Version() {
		return fmt.Errorf("answer at graph version %d, the graph is at %d", v, final.Version())
	}
	fresh, err := serve.New(serve.Config{Graph: final, BurnIn: w.burnIn, Budget: w.budget, Walkers: w.walkers})
	if err != nil {
		return err
	}
	qs := make([]serve.Query, len(in.queries))
	for i, q := range in.queries {
		qs[i] = serve.Query{Kind: q.Kind, Motif: q.Motif, Top: q.Top, Budget: w.budget, Walkers: w.walkers, Seed: in.keySeeds[0]}
		for _, p := range q.Pairs {
			qs[i].Pairs = append(qs[i].Pairs, graph.LabelPair{T1: graph.Label(p[0]), T2: graph.Label(p[1])})
		}
	}
	answers, err := fresh.EstimateBatch(context.Background(), qs)
	if err != nil {
		return err
	}
	want := make([]payload, len(answers))
	for i, a := range answers {
		if a.Err != nil {
			return a.Err
		}
		want[i] = renderServeAnswer(a)
	}
	return samePayloads(ans.Answers, want)
}

// checkReplayIdentity re-derives a sample of served answers offline: the
// answer's .osnt file decoded and replayed with core.RunTasksFused must give
// the same bits the service sent.
func checkReplayIdentity(res *result, in *inputs, c *cluster, log *answerLog) {
	tasks, err := in.tasks()
	if err != nil {
		res.violate("building replay tasks: %v", err)
		return
	}
	eng, err := c.replicas[0].ws.Graph(graphName)
	if err != nil {
		res.violate("%v", err)
		return
	}
	labels := eng.Graph()
	log.mu.Lock()
	keys := append([]string(nil), log.order...)
	log.mu.Unlock()
	checked := 0
	for _, key := range keys {
		if checked == 4 {
			break
		}
		path := c.storeFile(key)
		if path == "" {
			continue // superseded by a later graph version and pruned
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			res.violate("reading %s: %v", path, err)
			return
		}
		traj, err := store.Decode(raw)
		if err != nil {
			res.violate("decoding %s: %v", path, err)
			return
		}
		traj.BindLabels(labels)
		outs, errs := core.RunTasksFused(traj, tasks)
		want := make([]payload, len(outs))
		for i := range outs {
			if errs[i] != nil {
				res.violate("replaying %s: %v", key, errs[i])
				return
			}
			want[i] = renderOutput(in.queries[i].Kind, outs[i])
		}
		log.mu.Lock()
		served := log.byKey[key]
		log.mu.Unlock()
		if err := samePayloads(served, want); err != nil {
			res.violate("served answer for %s is not the replay of its .osnt: %v", key, err)
			return
		}
		checked++
	}
	if checked == 0 {
		res.violate("no served answer could be checked against its .osnt")
	}
}
