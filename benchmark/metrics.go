package main

// metricDef is one line of the benchmark's metric catalogue. BENCHMARK.json
// lists the same names; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the worsening, as a share, that counts as a regression
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, measured on its own corpus.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"qps", "1/s", higher, 0.25},
	{"cpu_us_per_query", "us", lower, 0.25},
	{"resp_kb", "KB", lower, 0.02},
	{"rss_mb", "MB", lower, 0.10},
	{"snapshot_amp", "ratio", lower, 0.005},
}

// perLayer is what single layers do, named module.metric after the repo's
// packages. None is gated.
var perLayer = []metricDef{
	{Name: "client.codec_us", Unit: "us", Better: lower},
	{Name: "client.p95_ms", Unit: "ms", Better: lower},
	{Name: "client.p99_ms", Unit: "ms", Better: lower},
	{Name: "client.late_p50_us", Unit: "us", Better: lower},
	{Name: "client.late_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.cpu_us_per_query", Unit: "us", Better: lower},
	{Name: "client.sent", Unit: "count", Better: higher},
	{Name: "client.ok", Unit: "count", Better: higher},
	{Name: "client.failed", Unit: "count", Better: lower},
	{Name: "client.mismatch", Unit: "count", Better: lower},
	{Name: "client.first_query_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.switch_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.fail_ratio", Unit: "ratio", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.build_s", Unit: "s", Better: lower},
	{Name: "cluster.hit_us", Unit: "us", Better: lower},
	{Name: "cluster.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cluster.route_us", Unit: "us", Better: lower},
	{Name: "cluster.cpu_us_per_query", Unit: "us", Better: lower},
	{Name: "cluster.rss_mb", Unit: "MB", Better: lower},
	{Name: "cluster.gather_ms", Unit: "ms", Better: lower},
	{Name: "cluster.ready_ms", Unit: "ms", Better: lower},
	{Name: "cluster.forwards", Unit: "count", Better: lower},
	{Name: "cluster.forward_errors", Unit: "count", Better: lower},
	{Name: "cluster.failovers", Unit: "count", Better: lower},
	{Name: "cluster.fast_fails", Unit: "count", Better: lower},
	{Name: "cluster.copy_errors", Unit: "count", Better: lower},
	{Name: "server.codec_us", Unit: "us", Better: lower},
	{Name: "server.transport_us", Unit: "us", Better: lower},
	{Name: "server.resp_bytes_p50", Unit: "B", Better: lower},
	{Name: "server.cpu_us_per_query", Unit: "us", Better: lower},
	{Name: "server.rss_mb", Unit: "MB", Better: lower},
	{Name: "server.ready_ms", Unit: "ms", Better: lower},
	{Name: "core.build_view_us", Unit: "us", Better: lower},
	{Name: "core.views_built", Unit: "count", Better: lower},
	{Name: "core.view_composites_mean", Unit: "count", Better: lower},
	{Name: "provenance.project_us", Unit: "us", Better: lower},
	{Name: "provenance.engine_cold_us", Unit: "us", Better: lower},
	{Name: "provenance.immediate_us", Unit: "us", Better: lower},
	{Name: "provenance.derived_us", Unit: "us", Better: lower},
	{Name: "provenance.closure_tuples", Unit: "count", Better: lower},
	{Name: "provenance.result_tuples", Unit: "count", Better: lower},
	{Name: "provenance.shrink_ratio", Unit: "ratio", Better: lower},
	{Name: "composite.mapping_us", Unit: "us", Better: lower},
	{Name: "warehouse.closure_miss_us", Unit: "us", Better: lower},
	{Name: "warehouse.closure_hit_us", Unit: "us", Better: lower},
	{Name: "warehouse.closure_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "warehouse.cache_evictions", Unit: "count", Better: lower},
	{Name: "warehouse.labels_share", Unit: "ratio", Better: higher},
	{Name: "warehouse.ingest_mb_s", Unit: "MB/s", Better: higher},
	{Name: "warehouse.save_v3_mb_s", Unit: "MB/s", Better: higher},
	{Name: "warehouse.open_v3_ms", Unit: "ms", Better: lower},
	{Name: "warehouse.subset_ms", Unit: "ms", Better: lower},
	{Name: "warehouse.snapshot_bytes", Unit: "B", Better: lower},
	{Name: "run.materialize_us", Unit: "us", Better: lower},
	{Name: "run.reconstruct_mb_s", Unit: "MB/s", Better: higher},
	{Name: "run.steps_mean", Unit: "count", Better: lower},
	{Name: "run.data_mean", Unit: "count", Better: lower},
	{Name: "wflog.parse_mb_s", Unit: "MB/s", Better: higher},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
}
