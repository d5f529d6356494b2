package main

// metricDef names one reported metric. The tables below are the program's
// side of BENCHMARK.json; a test holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"rows_per_s", "fingerprints/s"},
	{"ok_share", "ratio"},
	{"mean_err_m", "m"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics is what a traced run reports, layer by layer.
var layerMetrics = []metricDef{
	{"client.lat_p99_us", "us"},
	{"client.lat_p999_us", "us"},
	{"client.lat_max_us", "us"},
	{"client.gen_late_p99_us", "us"},
	{"client.sent", "count"},
	{"client.ok", "count"},
	{"client.failed", "count"},
	{"client.mismatched", "count"},
	{"client.roundtrip_us", "us"},
	{"client.queue_share", "ratio"},

	{"transport.self_us", "us"},

	{"cluster.handler_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.resolve_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.proxied", "count"},
	{"cluster.retries", "count"},
	{"cluster.shard_down", "count"},
	{"cluster.coalesced", "count"},

	{"node.handler_us", "us"},
	{"node.self_us", "us"},
	{"node.new_s", "s"},
	{"node.feedback_us", "us"},
	{"node.wire_client_errors", "count"},
	{"node.wire_overflows", "count"},

	{"serve.call_us", "us"},
	{"serve.self_us", "us"},
	{"serve.avg_latency_us", "us"},
	{"serve.batches", "count"},
	{"serve.rows", "count"},
	{"serve.avg_batch", "rows"},
	{"serve.queue_full_waits", "count"},
	{"serve.misroutes", "count"},

	{"localizer.predict_us", "us"},
	{"localizer.self_us", "us"},
	{"localizer.swap_us", "us"},

	{"core.predict_us", "us"},
	{"core.predict_us.float32.r1", "us"},
	{"core.predict_us.float32.r64", "us"},
	{"core.predict_us.float64.r1", "us"},
	{"core.predict_us.float64.r64", "us"},
	{"core.predict_us.int8.r1", "us"},
	{"core.predict_us.int8.r64", "us"},
	{"core.weight_bytes.float32", "bytes"},
	{"core.weight_bytes.int8", "bytes"},
	{"core.train_s", "s"},

	{"mat.gemm_us", "us"},
	{"mat.gemm_ns_per_mac.float32.r1", "ns"},
	{"mat.gemm_ns_per_mac.float32.r64", "ns"},
	{"mat.macs_per_query", "count"},
	{"mat.weight_bytes_per_query", "bytes"},

	{"train.round_s", "s"},
	{"train.swapped", "count"},

	{"attack.craft_us_per_row", "us"},
	{"fingerprint.collect_s", "s"},

	{"eval.mean_err_clean_m", "m"},
	{"eval.mean_err_attacked_m", "m"},
	{"eval.worst_err_m", "m"},

	{"proc.cpu_ms_per_req", "ms"},
	{"proc.allocs_per_req", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.goroutines_end", "count"},

	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}
