package main

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics every untraced run reports. Each
// workload reports each of them: an operation is one solve to the target
// on a training workload and one request on a serving workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "fraction"},
	{"test_acc", "fraction"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

var kernelUnits = []metricDef{
	{"fused_gradient.calls", "count"}, {"fused_gradient.ms", "ms"},
	{"mulnt_reduce.calls", "count"}, {"mulnt_reduce.ms", "ms"},
	{"mulnt.calls", "count"}, {"mulnt.ms", "ms"},
	{"multn.calls", "count"}, {"multn.ms", "ms"},
	{"gflops", "GFLOP/s"},
}

// perLayer are the traced run's module metrics. Training values are per
// solve; serving values cover the traced phases. A module a workload
// does not run reports 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, pkg := range []string{"linalg", "sparse"} {
		for _, k := range kernelUnits {
			out = append(out, metricDef{pkg + "." + k.name, k.unit})
		}
	}
	return append(out, []metricDef{
		{"device.launches", "count"},
		{"device.gflop", "GFLOP"},
		{"dist.shard_ms", "ms"},
		{"cluster.sends", "count"},
		{"cluster.mb_sent", "MB"},
		{"cluster.send_ms", "ms"},
		{"cluster.recv_wait_ms", "ms"},
		{"cluster.recv_wait_ms.max_rank", "ms"},
		{"cluster.rounds", "count"},
		{"cluster.modeled_comm_ms", "ms"},
		{"core.self_ms", "ms"},
		{"core.virtual_s", "s"},
		{"core.epochs", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_count", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"serve.batches", "count"},
		{"serve.rows_per_batch", "rows"},
		{"serve.rejected", "count"},
		{"router.call_ms.p50", "ms"},
		{"router.call_ms.p99", "ms"},
		{"router.legs", "1/req"},
		{"router.leg_ms.p50", "ms"},
		{"router.leg_ms.p99", "ms"},
		{"router.failovers", "count"},
		{"router.skew_retries", "count"},
		{"router.self_ms.p50", "ms"},
		{"wire.bytes_per_req", "B"},
		{"loadgen.late_ms.p99", "ms"},
		{"loadgen.late_ms.max", "ms"},
		{"loadgen.p50_ms.light", "ms"},
		{"loadgen.p99_ms.light", "ms"},
		{"loadgen.p50_ms.heavy", "ms"},
		{"loadgen.p99_ms.heavy", "ms"},
		{"loadgen.max_rate_ok", "1/s"},
		{"tracing.p50_ms.untraced", "ms"},
		{"tracing.p50_ms.traced", "ms"},
		{"tracing.overhead_pct", "%"},
	}...)
}()

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns every metric of defs, taking values from vals and 0 for
// the ones a workload does not produce.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
