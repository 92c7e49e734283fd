package main

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units and directions; moves names the end-to-end metric (and
// workload) a per-layer metric is expected to move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd metrics are measured on the real ecrpqd process over
// loopback HTTP with tracing off. A serve workload's latencies and
// throughput come from its closed loop over one connection, and its
// peak RSS from that loop's daemon; cold-analytic's from the analyst
// session. The p90 latencies are not among them: on a shared 2-core
// host they move by more than any bound a gate may use from run to
// run, so they are reported, ungated, as loadgen.* from the open-loop
// window.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "read_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "ok_frac", unit: "ratio", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer metrics come from the traced in-process replay (and, for
// graph.crash_restart_ms and loadgen.*, from the untraced daemon run).
// A metric a workload does not exercise reads 0 there. A moves entry
// that names serve-hot applies when that ungated workload is run by
// hand.
var perLayer = []metricDef{
	{"server.read_self_us_p50", "us", "lower", "read_p50_ms on serve-churn and serve-hot"},
	{"server.resp_kb_per_read", "KiB", "lower", "loadgen.read_p90_ms on cold-analytic"},
	{"plan.compile_us_p50", "us", "lower", "throughput_ops_s on cold-analytic"},
	{"plan.compile_us_p90", "us", "lower", "throughput_ops_s on cold-analytic"},
	{"qcache.hit_frac", "ratio", "higher", "read_p50_ms on serve-churn and serve-hot"},
	{"qcache.wait_frac", "ratio", "lower", "read_p50_ms on serve-churn and serve-hot"},
	{"qcache.revalidated_frac", "ratio", "higher", "loadgen.read_p90_ms on serve-churn"},
	{"qcache.incremental_frac", "ratio", "higher", "loadgen.read_p90_ms on serve-churn"},
	{"qcache.compute_frac", "ratio", "lower", "loadgen.read_p90_ms on serve-churn"},
	{"qcache.hit_us_p50", "us", "lower", "read_p50_ms on serve-churn and serve-hot"},
	{"qcache.evictions_per_kop", "count", "lower", "peak_rss_mb on cold-analytic, loadgen.read_p90_ms on serve-churn"},
	{"qcache.dead_dropped_per_kop", "count", "lower", "peak_rss_mb on cold-analytic, loadgen.read_p90_ms on serve-churn"},
	{"ecrpq.compute_ms_p50", "ms", "lower", "loadgen.read_p90_ms and throughput_ops_s on cold-analytic"},
	{"ecrpq.compute_ms_p90", "ms", "lower", "loadgen.read_p90_ms and throughput_ops_s on cold-analytic"},
	{"ecrpq.incremental_us_p50", "us", "lower", "loadgen.read_p90_ms on serve-churn and serve-hot"},
	{"ecrpq.revalidate_us_p50", "us", "lower", "loadgen.read_p90_ms on serve-churn and serve-hot"},
	{"ecrpq.answers_per_compute", "count", "lower", "work count; no e2e metric"},
	{"ecrpq.par_levels_per_compute", "count", "lower", "throughput_ops_s on cold-analytic"},
	{"ecrpq.par_fanouts_per_compute", "count", "lower", "throughput_ops_s on cold-analytic"},
	{"ecrpq.alloc_mb_per_compute", "MB", "lower", "peak_rss_mb and loadgen.read_p90_ms on cold-analytic"},
	{"graph.snapshot_us_p50", "us", "lower", "loadgen.read_p90_ms on serve-churn"},
	{"graph.snapshot_ms_max", "ms", "lower", "loadgen.read_p90_ms on serve-churn"},
	{"graph.delta_edges_p50", "count", "lower", "read_p50_ms on serve-churn"},
	{"graph.apply_us_p50", "us", "lower", "write_p50_ms on serve-churn"},
	{"graph.checkpoints", "count", "lower", "loadgen.write_p90_ms and loadgen.read_p90_ms on serve-churn"},
	{"graph.checkpoint_ms_p50", "ms", "lower", "loadgen.write_p90_ms and loadgen.read_p90_ms on serve-churn"},
	{"graph.wal_bytes_per_edge", "B", "lower", "write_p50_ms on serve-churn"},
	{"graph.recover_ms", "ms", "lower", "setup_s on serve-hot and serve-churn"},
	{"graph.load_ms", "ms", "lower", "setup_s on cold-analytic"},
	{"graph.crash_restart_ms", "ms", "lower", "setup_s on serve-churn"},
	{"segment.bytes_per_edge", "B", "lower", "setup_s and peak_rss_mb on serve-churn and serve-hot"},
	{"runtime.gc_cycles_per_kop", "count", "lower", "loadgen.read_p90_ms on all workloads"},
	{"runtime.gc_pause_p99_us", "us", "lower", "loadgen.read_p90_ms on all workloads"},
	{"runtime.heap_peak_mb", "MB", "lower", "peak_rss_mb on all workloads"},
	{"loadgen.send_lag_p50_ms", "ms", "lower", "validity check"},
	{"loadgen.send_lag_p99_ms", "ms", "lower", "validity check"},
	{"loadgen.backlog_end", "count", "lower", "validity check"},
	{"loadgen.read_p90_ms", "ms", "lower", "read tail seen by users; ungated"},
	{"loadgen.write_p90_ms", "ms", "lower", "write tail seen by users; ungated"},
	{"loadgen.read_p99_ms", "ms", "lower", "validity check"},
	{"loadgen.read_max_ms", "ms", "lower", "validity check"},
}
