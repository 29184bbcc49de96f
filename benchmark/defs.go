package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units and directions; the tests
// keep the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the baseline's median it may worsen
}

// endToEndMetrics are what a user of the stack sees, measured with all
// tracing off. Failures are reported beside them as failed/attempted
// (fail_share in the printed table); any increase there is a regression.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"bcast_p50_us", "us", "lower", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"peak_rss_MB", "MB", "lower", 0.25},
}

// perLayerMetrics is the ledger of the traced run, layer by layer.
// README.md maps each to the end-to-end metric it should move, and on
// which workload.
var perLayerMetrics = []metricDef{
	{"bcast.new_cluster_us", "us", "lower", 0},
	{"bcast.first_run_us", "us", "lower", 0},
	{"bcast.relaunch_us", "us", "lower", 0},
	{"bcast.init_us", "us", "lower", 0},
	{"bcast.close_us", "us", "lower", 0},
	{"bcast.percall_minus_persistent_us", "us", "lower", 0},
	{"bcast.tail_us", "us", "lower", 0},
	{"bcast.tail_pct", "%", "higher", 0},

	{"tune.decide_ns", "ns", "lower", 0},
	{"tune.table_decide_ns", "ns", "lower", 0},
	{"tune.env_of_ns", "ns", "lower", 0},

	{"collective.msgs_per_bcast", "count", "lower", 0},
	{"collective.bytes_per_bcast", "B", "lower", 0},
	{"collective.saved_bytes_pct", "%", "higher", 0},
	{"collective.native_over_opt", "ratio", "higher", 0},
	{"collective.exec_program_over_handwritten", "ratio", "lower", 0},
	{"collective.bare_p50_us", "us", "lower", 0},
	{"collective.barrier_us", "us", "lower", 0},
	{"collective.plan_us", "us", "lower", 0},

	{"core.program_gen_us", "us", "lower", 0},

	{"engine.world_boot_us", "us", "lower", 0},
	{"engine.pingpong_eager_ns", "ns", "lower", 0},
	{"engine.match_depth64_ns", "ns", "lower", 0},
	{"engine.parks_per_bcast", "count", "lower", 0},
	{"engine.slot_waits_per_bcast", "count", "lower", 0},
	{"engine.eager_sends_per_bcast", "count", "lower", 0},
	{"engine.arrival_queue_max", "count", "lower", 0},
	{"engine.posted_queue_max", "count", "lower", 0},
	{"engine.pingpong_rdv_ns", "ns", "lower", 0},
	{"engine.rdv_copy_MBps", "MB/s", "higher", 0},
	{"engine.rdv_sends_per_bcast", "count", "lower", 0},
	{"engine.staged_bytes_per_bcast", "B", "lower", 0},
	{"engine.allocs_per_bcast", "count", "lower", 0},
	{"engine.alloc_bytes_per_bcast", "B", "lower", 0},
	{"engine.pooled_over_goroutine", "ratio", "higher", 0},

	{"bufpool.get_release_ns", "ns", "lower", 0},
	{"bufpool.gets_per_bcast", "count", "lower", 0},
	{"bufpool.miss_share", "ratio", "lower", 0},
	{"bufpool.oversize_gets_per_bcast", "count", "lower", 0},

	{"transport.udp_pingpong_us", "us", "lower", 0},
	{"transport.udp_stream_MBps", "MB/s", "higher", 0},
	{"transport.udp_over_chan", "ratio", "lower", 0},
	{"transport.datagrams_per_bcast", "count", "lower", 0},
	{"transport.wire_bytes_per_payload_byte", "ratio", "lower", 0},
	{"transport.acks_per_bcast", "count", "lower", 0},
	{"transport.datagrams_per_write_syscall", "ratio", "higher", 0},
	{"transport.srtt_max_us", "us", "lower", 0},
	{"transport.rto_max_us", "us", "lower", 0},
	{"transport.close_drain_ms", "ms", "lower", 0},
	{"transport.retx_share", "ratio", "lower", 0},
	{"transport.cwnd_halvings_per_bcast", "count", "lower", 0},
	{"transport.cwnd_low_water", "count", "higher", 0},

	{"metrics.snapshot_us", "us", "lower", 0},
	{"metrics.spans_overhead_pct", "%", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"baseline.memcpy_MBps", "MB/s", "higher", 0},
	{"budget.p50_us", "us", "lower", 0},
	{"budget.facade_us", "us", "lower", 0},
	{"budget.engine_us", "us", "lower", 0},
	{"budget.copy_us", "us", "lower", 0},
	{"budget.wire_us", "us", "lower", 0},
	{"budget.residue_pct", "%", "lower", 0},
}
