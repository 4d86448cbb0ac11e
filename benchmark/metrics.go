package main

// metricDef names one reported metric and its unit. The lists below are
// the harness's side of the contract in BENCHMARK.json; the smoke test
// asserts the two agree name for name and unit for unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics, reported by every workload on an
// untraced run. What latency and throughput mean on each workload is
// tabulated in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"resident_mb", "MB"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"throughput_per_s", "1/s"},
}

// strategies are the suffixes of the per-strategy core.* rows, in
// core.Strategy order.
var strategies = []string{"rtc", "full", "none"}

// perLayer are the ungated layer metrics of a traced run, layer =
// package name. A workload that does not exercise a layer reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"rpq.parse_ns", "ns"}, {"rpq.dnf_ns", "ns"}, {"rpq.clauses", "count"},
		{"plan.plan_ns", "ns"}, {"plan.est_log2_error", "log2"},
		{"eval.rg_ns", "ns"}, {"eval.pre_ns", "ns"}, {"eval.rows_out", "count"}, {"eval.whole_query_ns", "ns"},
		{"pairs.seal_ns", "ns"}, {"pairs.seal_rows", "count"}, {"pairs.transpose_ns", "ns"}, {"pairs.page_ns", "ns"},
		{"scc.tarjan_ns", "ns"}, {"scc.condense_ns", "ns"}, {"scc.components", "count"},
		{"tc.reduced_closure_ns", "ns"}, {"tc.full_closure_ns", "ns"}, {"tc.full_pairs", "count"}, {"tc.invert_ns", "ns"},
		{"rtc.edge_reduce_ns", "ns"}, {"rtc.compute_ns", "ns"}, {"rtc.reduced_vertices", "count"},
		{"rtc.shared_pairs", "count"}, {"rtc.avg_scc_size", "ratio"}, {"rtc.expand_ratio", "ratio"}, {"rtc.insert_edges_ns", "ns"},
		{"core.evaluate_cold_ns", "ns"}, {"core.evaluate_warm_ns", "ns"}, {"core.join_ns", "ns"}, {"core.join_rows_out", "count"},
	}
	for _, row := range []metricDef{
		{"core.shared_data_ns", "ns"}, {"core.pre_join_ns", "ns"}, {"core.remainder_ns", "ns"}, {"core.unattributed_share", "ratio"},
	} {
		for _, s := range strategies {
			defs = append(defs, metricDef{row.name + "." + s, row.unit})
		}
	}
	return append(defs, []metricDef{
		{"core.cache_hits", "count"}, {"core.cache_misses", "count"}, {"core.rel_hits", "count"}, {"core.rel_misses", "count"},
		{"core.sharing_factor", "ratio"}, {"core.cross_epoch_hits", "count"},
		{"core.alloc_bytes_per_query", "B"}, {"core.allocs_per_query", "allocs"},
		{"core.apply_updates_ns", "ns"}, {"core.migrate_ns", "ns"},
		{"core.carried", "count"}, {"core.patched", "count"}, {"core.dropped", "count"},
		{"core.rel_carried", "count"}, {"core.rel_dropped", "count"},
		{"core.open_stream_ns", "ns"}, {"core.stream_drain_ns", "ns"}, {"core.stream_rows_per_pair", "ratio"},
		{"graph.build_ns", "ns"}, {"graph.freeze_ns", "ns"},
		{"store.open_cold_ns", "ns"}, {"store.commit_overhead_ns", "ns"}, {"store.wal_bytes_per_update", "B"},
		{"store.snapshot_ns", "ns"}, {"store.snapshot_bytes", "B"}, {"store.snapshot_stall_max_ms", "ms"},
		{"store.bytes_per_edge", "B"}, {"store.recover_ns", "ns"},
		{"server.handler_ns", "ns"}, {"server.transport_ns", "ns"}, {"server.overhead_ns", "ns"},
		{"server.queue_ns", "ns"}, {"server.coalesce_wait_ns", "ns"}, {"server.plan_ns", "ns"},
		{"server.closure_build_ns", "ns"}, {"server.join_ns", "ns"}, {"server.seal_ns", "ns"},
		{"server.page_ns", "ns"}, {"server.other_ns", "ns"}, {"server.stage_sum_ratio", "ratio"},
		{"server.path_fast_path", "count"}, {"server.path_fast_lane", "count"}, {"server.path_windowed", "count"},
		{"server.response_bytes", "B"}, {"server.stream_first_chunk_ns", "ns"}, {"server.stream_chunks", "count"},
		{"server.bytes_per_pair", "B"},
		{"bench.trace_overhead_share", "ratio"},
	}...)
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"paper-batch", "stream-dense", "serve-hot", "serve-churn"}
