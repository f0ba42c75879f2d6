package main

import "fmt"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric a run mode must emit, with its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the service sees, reported by every
// untraced run of every workload. BENCHMARK.json gates each with a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"cpu_s_per_query", "s"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs (every
// workload reports every one; a layer the workload does not exercise reads
// 0). Names are <layer>.<quantity>, after the modules of the request path.
var perLayer = []metricDef{
	{"loadgen.transport_ms_p50", "ms"},
	{"loadgen.sched_lag_p99_ms", "ms"},
	{"loadgen.slo_miss_ratio", "ratio"},
	{"loadgen.error_ratio", "ratio"},
	{"loadgen.write_ms_p50", "ms"},
	{"loadgen.write_ms_tail", "ms"},
	{"loadgen.estimate_nrmse", "ratio"},
	{"gateway.self_ms_p50", "ms"},
	{"gateway.hop_ms_p50", "ms"},
	{"gateway.retries", "count"},
	{"gateway.parked_ratio", "ratio"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_tail", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.store_loads_per_query", "count"},
	{"serve.cached_bytes_peak", "B"},
	{"serve.recordings_per_query", "count"},
	{"serve.topups_per_query", "count"},
	{"serve.topup_saved_ratio", "ratio"},
	{"serve.api_calls_per_query", "count"},
	{"serve.patch_ms_p50", "ms"},
	{"serve.patch_ms_tail", "ms"},
	{"store.decode_ms_p50", "ms"},
	{"store.decode_mb_per_s", "MB/s"},
	{"store.osnt_bytes_mean", "B"},
	{"store.bytes_written_per_query", "B"},
	{"core.replay_ms_p50", "ms"},
	{"core.replay_share", "ratio"},
	{"core.record_ms_p50", "ms"},
	{"osn.neighbors_calls_per_query", "count"},
	{"osn.labels_calls_per_query", "count"},
	{"osn.source_busy_ms_per_query", "ms"},
	{"httpsrc.requests_per_fetch", "ratio"},
	{"httpsrc.retries_per_query", "count"},
	{"httpsrc.throttled_per_query", "count"},
	{"faultsim.requests_per_query", "count"},
	{"faultsim.labels_share", "ratio"},
	{"faultsim.bytes_per_query", "B"},
	{"snapshot.segments_written", "count"},
	{"snapshot.compactions", "count"},
	{"snapshot.bytes_written", "B"},
	{"snapshot.bytes_on_disk", "B"},
	{"snapshot.load_ms", "ms"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.bytes_alloc_per_query", "B"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// result is everything one workload run measured; -out appends it as a
// JSON line, and compare reads those lines back.
type result struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Meta       runMeta           `json:"meta"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Tail       tail              `json:"tail"`
	Metrics    map[string]metric `json:"metrics"`
	SpansFile  string            `json:"spans_file,omitempty"`
}

// set records a metric.
func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// violate records a failed output check; the run then reports correct=false
// and exits 1.
func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}
