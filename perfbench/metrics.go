package main

// metricSpec names one reported metric and its unit. The lists below
// must match BENCHMARK.json (metrics_test.go checks that they do).
type metricSpec struct{ name, unit string }

// endToEnd are reported by every untraced run, on every workload. Each
// workload's operation differs (one simulation on live, one campaign on
// sweep, one request on serve); README.md spells out each reading.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"minst_per_s", "Minst/s"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"rps", "1/s"},
}

// perLayer are reported by every traced run, on every workload. A layer
// the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"kernels.build_s", "s"},
	{"trace.capture_s", "s"},
	{"trace.capture_ns_per_inst", "ns/inst"},
	{"trace.records", "count"},
	{"trace.bytes", "bytes"},
	{"trace.decode_s", "s"},
	{"sim.live_ns_per_inst", "ns/inst"},
	{"sim.allocs_per_kinst", "allocs/kinst"},
	{"sim.replay_ns_per_inst", "ns/inst"},
	{"sim.batch_ns_per_inst", "ns/inst"},
	{"sim.ns_per_cycle", "ns/cycle"},
	{"blp.overhead_s", "s"},
	{"core.cycles", "cycles"},
	{"core.committed", "inst"},
	{"core.uops_fetched", "count"},
	{"core.uops_squashed", "count"},
	{"core.useful_ratio", "ratio"},
	{"core.mispredicts", "count"},
	{"core.slice_recoveries", "count"},
	{"core.conv_recoveries", "count"},
	{"core.flushed_selective", "count"},
	{"core.flushed_full", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.llc_misses", "count"},
	{"bpred.mpki", "mpki"},
	{"blp.simulated", "count"},
	{"blp.captured", "count"},
	{"blp.replayed", "count"},
	{"blp.batched", "count"},
	{"blp.batch_groups", "count"},
	{"trace.seg_hits", "count"},
	{"trace.seg_invalidated", "count"},
	{"trace.seg_bypassed", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.trace_hit_ratio", "ratio"},
	{"memo.evictions", "count"},
	{"memo.bytes", "bytes"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.writes", "count"},
	{"store.bytes", "bytes"},
	{"serve.handler_us", "us"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.sweep_p50_ms", "ms"},
	{"serve.resp_bytes", "bytes"},
	{"serve.server_p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.p99_ms", "ms"},
	{"bench.trace_overhead_s", "s"},
}

// newLayerMetrics returns every per-layer metric at 0, for a workload to
// fill in the layers it exercises.
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	return m
}
