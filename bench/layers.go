package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph/snapshot"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/store"
)

// watcher samples, every 50 ms of a measured window, what only polling can
// see: the process's resident set, the replicas' cache weight and, on
// churn-topup, the snapshot rewrites that compaction performs and the sizes
// of the delta segments.
type watcher struct {
	done, stopped chan struct{}

	rssMB       []float64
	rssErr      error // the last failed resident-set read, if any
	peakCached  int64
	compactions int
	segBytes    map[string]int64
}

func startWatcher(c *cluster) *watcher {
	wt := &watcher{done: make(chan struct{}), stopped: make(chan struct{}), segBytes: make(map[string]int64)}
	mod := make(map[string]time.Time)
	for _, r := range c.replicas {
		if r.snapPath != "" {
			if st, err := os.Stat(r.snapPath); err == nil {
				mod[r.snapPath] = st.ModTime()
			}
		}
	}
	go func() {
		defer close(wt.stopped)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := residentMB(); err != nil {
				wt.rssErr = err
			} else {
				wt.rssMB = append(wt.rssMB, mb)
			}
			wt.peakCached = max(wt.peakCached, c.cachedBytes())
			for _, r := range c.replicas {
				if r.snapPath == "" {
					continue
				}
				if st, err := os.Stat(r.snapPath); err == nil && !st.ModTime().Equal(mod[r.snapPath]) {
					mod[r.snapPath] = st.ModTime()
					wt.compactions++
				}
				for path, size := range segmentSizes(r.snapPath) {
					wt.segBytes[path] = size
				}
			}
			select {
			case <-wt.done:
				return
			case <-tick.C:
			}
		}
	}()
	return wt
}

// stop ends the sampling and waits for the sampler to exit.
func (wt *watcher) stop() {
	close(wt.done)
	<-wt.stopped
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q has no resident field", raw)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// segmentSizes maps each .osnd segment beside a snapshot to its size. A
// segment that compaction removes between listing and stat is skipped: the
// watcher samples, it does not account.
func segmentSizes(snapPath string) map[string]int64 {
	out := make(map[string]int64)
	segs, _ := snapshot.ListDeltas(snapPath) // an unreadable directory reads as no segments
	for _, s := range segs {
		if st, err := os.Stat(s.Path); err == nil {
			out[s.Path] = st.Size()
		}
	}
	return out
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

func p50(xs []float64) float64 { return zeroNaN(percentile(sortedCopy(xs), 500)) }

// layerMetrics sets the per-layer metrics of a traced run: span-derived
// layer times, the watcher's samples, and the layer probes, which time
// store.Decode, core.RunTasksFused and core.RecordTrajectory on the
// workload's own files, task mix and parameters after the windows.
func layerMetrics(res *result, w *workload, in *inputs, c *cluster, spans []span, base, win *window, watch *watcher, before, after counters) error {
	st := analyze(spans)
	for _, v := range st.violations {
		res.violate("spans: %s", v)
	}
	n := len(win.reads)
	res.set("trace.overhead_ratio", ratio(p50(win.reads), p50(base.reads)), "ratio")
	res.set("loadgen.transport_ms_p50", p50(st.transport), "ms")
	res.set("gateway.self_ms_p50", p50(st.gatewaySelf), "ms")
	res.set("gateway.hop_ms_p50", p50(st.hop), "ms")
	res.set("serve.handler_ms_p50", p50(st.handler), "ms")
	res.set("serve.handler_ms_tail", zeroNaN(tailAt(sortedCopy(st.handler), w.tailLevel).Value), "ms")
	res.set("serve.patch_ms_p50", p50(st.patch), "ms")
	res.set("serve.patch_ms_tail", zeroNaN(tailAt(sortedCopy(st.patch), w.tailLevel).Value), "ms")
	res.set("serve.cached_bytes_peak", float64(watch.peakCached), "B")
	if w.crawl {
		res.set("osn.neighbors_calls_per_query", per(float64(after.neighbors-before.neighbors), n), "count")
		res.set("osn.labels_calls_per_query", per(float64(after.labels-before.labels), n), "count")
		res.set("osn.source_busy_ms_per_query", per(float64(after.busyNs-before.busyNs)/1e6, n), "ms")
	}

	trajs, err := probeStore(res, c)
	if err != nil {
		return err
	}
	// Saves are counted by the engines; their size is the mean file size.
	saves := after.engine.StoreSaves - before.engine.StoreSaves
	res.set("store.bytes_written_per_query", per(float64(saves)*res.Metrics["store.osnt_bytes_mean"].Value, n), "B")
	replay, err := probeReplay(in, trajs)
	if err != nil {
		return err
	}
	res.set("core.replay_ms_p50", replay, "ms")
	res.set("core.replay_share", ratio(replay, p50(st.handler)), "ratio")
	record, err := probeRecord(w, in)
	if err != nil {
		return err
	}
	res.set("core.record_ms_p50", record, "ms")
	return snapshotMetrics(res, c, watch)
}

// probeStore times store.Decode, three times each, on up to 16 of the
// replicas' .osnt files, and returns the decoded trajectories.
func probeStore(res *result, c *cluster) ([]*core.Trajectory, error) {
	var files []string
	for _, r := range c.replicas {
		names, err := filepath.Glob(filepath.Join(r.storeDir, graphName, "*"+store.Ext))
		if err != nil {
			return nil, err
		}
		files = append(files, names...)
	}
	sort.Strings(files)
	files = files[:min(len(files), 16)]
	var decodeMs []float64
	var fileBytes, decodedBytes int64
	var decodeTime time.Duration
	var trajs []*core.Trajectory
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		fileBytes += int64(len(raw))
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			traj, err := store.Decode(raw)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("decoding %s: %w", f, err)
			}
			decodeMs = append(decodeMs, float64(d)/1e6)
			decodeTime += d
			decodedBytes += int64(len(raw))
			if rep == 0 {
				trajs = append(trajs, traj)
			}
		}
	}
	res.set("store.decode_ms_p50", p50(decodeMs), "ms")
	res.set("store.decode_mb_per_s", ratio(float64(decodedBytes)/1e6, decodeTime.Seconds()), "MB/s")
	res.set("store.osnt_bytes_mean", ratio(float64(fileBytes), float64(len(files))), "B")
	return trajs, nil
}

// probeReplay returns the p50 of warm core.RunTasksFused replays of the
// workload's batch over trajs.
func probeReplay(in *inputs, trajs []*core.Trajectory) (float64, error) {
	tasks, err := in.tasks()
	if err != nil {
		return 0, err
	}
	var ms []float64
	for _, traj := range trajs {
		traj.BindLabels(in.g)
		core.RunTasksFused(traj, tasks) // builds the lazy replay columns, as the first cached replay does
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			core.RunTasksFused(traj, tasks)
			ms = append(ms, msSince(t0))
		}
	}
	return p50(ms), nil
}

// probeRecord returns the p50 of five core.RecordTrajectory calls with the
// workload's budget, walkers and burn-in on the in-memory graph.
func probeRecord(w *workload, in *inputs) (float64, error) {
	var ms []float64
	seeds := newSeedStream(in.root, "probe")
	for rep := 0; rep < 5; rep++ {
		seed := seeds.next()
		s, err := osn.NewSessionFrom(osn.NewGraphSource(in.g), osn.Config{})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = core.RecordTrajectory(s, w.budget, core.Options{
			BurnIn: w.burnIn, Rng: stats.NewSeedSequence(seed).NextRand(), Start: -1,
			BudgetDriven: true, Walkers: w.walkers, Seed: seed,
		})
		ms = append(ms, msSince(t0))
		s.Release()
		if err != nil {
			return 0, err
		}
	}
	return p50(ms), nil
}

// snapshotMetrics sets the delta log's metrics: rewrites the watcher saw,
// bytes written (compactions x base size + segments x mean segment size),
// files left on disk, and the time to load the snapshot back.
func snapshotMetrics(res *result, c *cluster, watch *watcher) error {
	var segSum float64
	for _, b := range watch.segBytes {
		segSum += float64(b)
	}
	segMean := ratio(segSum, float64(len(watch.segBytes)))
	var onDisk, baseSize int64
	var loadMs []float64
	for _, r := range c.replicas {
		if r.snapPath == "" {
			continue
		}
		st, err := os.Stat(r.snapPath)
		if err != nil {
			return err
		}
		baseSize = st.Size()
		onDisk += baseSize
		for _, size := range segmentSizes(r.snapPath) {
			onDisk += size
		}
	}
	if path := c.replicas[0].snapPath; path != "" {
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := snapshot.Load(path); err != nil {
				return err
			}
			loadMs = append(loadMs, msSince(t0))
		}
	}
	res.set("snapshot.compactions", float64(watch.compactions), "count")
	res.set("snapshot.bytes_written", float64(watch.compactions)*float64(baseSize)+res.Metrics["snapshot.segments_written"].Value*segMean, "B")
	res.set("snapshot.bytes_on_disk", float64(onDisk), "B")
	res.set("snapshot.load_ms", p50(loadMs), "ms")
	return nil
}
