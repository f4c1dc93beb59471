package main

// metricDef names one metric; BENCHMARK.json lists the same names, units and
// directions, which smoke_test.go checks.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics the driver compares between commits. Each is
// defined, and never zero, on all five workloads. The bounds on timings are
// about three times the spread between ten runs on a shared 2-core machine
// (3-10% on throughput and CPU per operation); the counts repeat to a
// fraction of a percent and keep tight bounds. On sim-corpus,
// which has no open-loop phase and no real wire, op_p50_ms and op_p99_ms are
// the wall time of one runner.Run and wire_bytes_per_op the simulated bytes
// fetched per load.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"wire_bytes_per_op", "B", "lower", 0.005},
	{"heap_live_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// suiteOnly are the end-to-end metrics the driver's contract does not admit:
// they exist on some workloads only, are zero when all is well, or, for
// op_p99_ms, spread further between runs than the largest bound the contract
// allows (on the document workloads the tail is set by GC mark phases, and
// ten runs spread by 10-31%). The suite prints and -aa checks them under these
// names; a driver run reports them among the layer metrics as e2e.<name>, 0
// where they do not apply.
var suiteOnly = []metricDef{
	{"op_p99_ms", "ms", "lower", 0.25},
	{"hint_bytes_per_doc", "B", "lower", 0},
	{"failed_share", "ratio", "lower", 0.001},
	{"sim_plt_vroom_p50_ms", "sim_ms", "lower", 0},
	{"sim_plt_h2_p50_ms", "sim_ms", "lower", 0},
}

// perLayer are the metrics of single layers: probes of exported functions
// (minimum of five repeats) and counts and spans from the traced pass. A
// traced metric reads 0 on a workload whose path does not cross the layer.
var perLayer = []metricDef{
	{"h2.frame_write_read_ns", "ns", "lower", 0},
	{"h2.frame_write_read_allocs", "count", "lower", 0},
	{"h2.hpack_encode_req_ns", "ns", "lower", 0},
	{"h2.hpack_decode_req_ns", "ns", "lower", 0},
	{"h2.hpack_decode_req_allocs", "count", "lower", 0},
	{"h2.hpack_encode_hints_ns", "ns", "lower", 0},
	{"h2.hpack_decode_hints_ns", "ns", "lower", 0},
	{"h2.hpack_hints_block_bytes", "B", "lower", 0},
	{"h2.roundtrip_1k_us", "us", "lower", 0},
	{"h2.roundtrip_1k_allocs", "count", "lower", 0},
	{"h2.roundtrip_100k_us", "us", "lower", 0},
	{"h2.push_roundtrip_us", "us", "lower", 0},
	{"h2.exchange_self_us", "us", "lower", 0},

	{"h1.codec_ns", "ns", "lower", 0},
	{"h1.codec_allocs", "count", "lower", 0},
	{"h1.roundtrip_1k_us", "us", "lower", 0},
	{"h1.roundtrip_1k_allocs", "count", "lower", 0},
	{"h1.roundtrip_100k_us", "us", "lower", 0},
	{"h1.exchange_self_us", "us", "lower", 0},

	{"netem.pipe_mb_per_s", "MB/s", "higher", 0},
	{"netem.pipe_rtt_us", "us", "lower", 0},
	{"netem.dials_per_op", "count", "lower", 0},
	{"netem.conn_writes_per_op", "count", "lower", 0},
	{"netem.conn_reads_per_op", "count", "lower", 0},

	{"overload.acquire_release_ns", "ns", "lower", 0},
	{"overload.acquire_release_contended_ns", "ns", "lower", 0},
	{"overload.shed_ns", "ns", "lower", 0},

	{"hintstore.lookup_fresh_us", "us", "lower", 0},
	{"hintstore.lookup_fresh_allocs", "count", "lower", 0},
	{"hintstore.lookup_stale_us", "us", "lower", 0},
	{"hintstore.lookup_miss_ns", "ns", "lower", 0},
	{"hintstore.lookup_restored_us", "us", "lower", 0},
	{"hintstore.lookup_fresh_parallel_us", "us", "lower", 0},
	{"hintstore.register_ms", "ms", "lower", 0},
	{"hintstore.retrain_ms_p50", "ms", "lower", 0},
	{"hintstore.retrains_per_s", "1/s", "higher", 0},
	{"hintstore.stale_share", "ratio", "lower", 0},

	{"persist.append_fsync_always_us", "us", "lower", 0},
	{"persist.append_fsync_none_us", "us", "lower", 0},
	{"persist.encode_table_us", "us", "lower", 0},
	{"persist.table_bytes", "B", "lower", 0},
	{"persist.snapshot_all_ms", "ms", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},

	{"hints.format_us", "us", "lower", 0},
	{"hints.format_allocs", "count", "lower", 0},
	{"hints.parse_us", "us", "lower", 0},
	{"hints.parse_allocs", "count", "lower", 0},

	{"core.hints_for_us", "us", "lower", 0},
	{"core.hints_for_allocs", "count", "lower", 0},
	{"core.train_ms", "ms", "lower", 0},
	{"core.push_set_us", "us", "lower", 0},
	{"core.export_us", "us", "lower", 0},
	{"core.hint_precision", "ratio", "higher", 0},
	{"core.hint_recall", "ratio", "higher", 0},

	{"webpage.extract_refs_html_mb_per_s", "MB/s", "higher", 0},
	{"webpage.extract_refs_css_mb_per_s", "MB/s", "higher", 0},
	{"webpage.extract_refs_js_mb_per_s", "MB/s", "higher", 0},
	{"webpage.snapshot_ms", "ms", "lower", 0},
	{"webpage.snapshot_allocs", "count", "lower", 0},

	{"replay.lookup_ns", "ns", "lower", 0},
	{"replay.from_snapshot_ms", "ms", "lower", 0},

	{"wire.serve_h1_doc_us", "us", "lower", 0},
	{"wire.serve_h1_doc_allocs", "count", "lower", 0},
	{"wire.serve_h1_asset_ns", "ns", "lower", 0},
	{"wire.serve_h1_asset_allocs", "count", "lower", 0},
	{"wire.serve_h1_doc_instrumented_us", "us", "lower", 0},
	{"wire.accountant_note_request_ns", "ns", "lower", 0},
	{"wire.accountant_note_hints_us", "us", "lower", 0},
	{"wire.accountant_flush_us", "us", "lower", 0},
	{"wire.doc_handler_us_p50", "us", "lower", 0},
	{"wire.asset_handler_us_p50", "us", "lower", 0},
	{"wire.client_load_self_ms", "ms", "lower", 0},
	{"wire.fetches_per_op", "count", "lower", 0},
	{"wire.push_streams_per_op", "count", "higher", 0},
	{"wire.pushed_bytes_per_op", "B", "higher", 0},
	{"wire.retries_per_op", "count", "lower", 0},
	{"wire.degraded_share", "ratio", "lower", 0},

	{"telemetry.counter_inc_ns", "ns", "lower", 0},
	{"telemetry.histogram_observe_ns", "ns", "lower", 0},
	{"telemetry.write_prometheus_us", "us", "lower", 0},
	{"obs.wall_span_ns", "ns", "lower", 0},
	{"obs.flight_span_ns", "ns", "lower", 0},

	{"event.schedule_step_ns", "ns", "lower", 0},
	{"event.schedule_step_allocs", "count", "lower", 0},
	{"netsim.fetch_8flows_us", "us", "lower", 0},
	{"netsim.fetch_64flows_us", "us", "lower", 0},
	{"runner.run_vroom_cold_ms", "ms", "lower", 0},
	{"runner.run_vroom_cached_ms", "ms", "lower", 0},
	{"runner.run_h2_cached_ms", "ms", "lower", 0},
	{"runner.run_http1_cached_ms", "ms", "lower", 0},
	{"runner.run_vroom_allocs", "count", "lower", 0},
	{"browser.warm_cache_load_ms", "ms", "lower", 0},
	{"runner.trace_events_per_load", "count", "lower", 0},
	{"runner.caches_hit_share", "ratio", "higher", 0},

	{"reconcile.unexplained_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},

	{"e2e.op_p99_ms", "ms", "lower", 0},
	{"e2e.hint_bytes_per_doc", "B", "lower", 0},
	{"e2e.failed_share", "ratio", "lower", 0},
	{"e2e.sim_plt_vroom_p50_ms", "sim_ms", "lower", 0},
	{"e2e.sim_plt_h2_p50_ms", "sim_ms", "lower", 0},
}
