package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; perfbench_test.go keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a caller sees, under one name on every workload:
//
//	metric         cold-search         serve-mixed          stream-churn
//	ops_per_cpu_s  sched_per_cpu_s     req_per_cpu_s        events_per_cpu_s
//	op_cpu_p50_s   sched_cpu_p50_s     req_cpu_p50_s        resched_cpu_p50_s
//	op_cpu_tail_s  sched_cpu_p90_s     req_cpu_p99_s        resched_cpu_p90_s
//	quality        makespan_over_lb    makespan_over_lb     mean job stretch
//	               (geometric mean)    (hot set, geomean)   (response / job LB)
//
// The timings are on the process's CPU clock (see cpuNow): what a caller
// pays per operation in CPU seconds, with one operation in flight at a
// time. On a shared host the wall clock also moves with other guests'
// load, by more than any bound a regression check can use, so the
// wall-clock figures (sched_per_s, req_p50_s, ...) are per-layer metrics
// under wall.* and are printed in every run's human report. setup_s (CPU
// seconds of one set-up) and alloc_bytes_per_op mean the same on all
// three workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"op_cpu_p50_s", "s"},
	{"op_cpu_tail_s", "s"},
	{"alloc_bytes_per_op", "B"},
	{"quality", "ratio"},
}

// perLayer is reported by traced runs. A workload that does not exercise
// a layer reports zero for it: core and redist on serve-mixed, serve and
// httpserve on cold-search. stream-churn is not one of BENCHMARK.json's
// workloads (see stream.go); its stream-layer metrics appear only in its
// human report.
var perLayer = []metricDef{
	// core: the LoC-MPS search and the LoCBS placement kernel.
	{"core.schedule_s", "s"},
	{"core.s_per_locbs_run", "s"},
	{"core.locbs_probe_s", "s"},
	{"core.locbs_runs", "count"},
	{"core.outer_iterations", "count"},
	{"core.lookahead_steps", "count"},
	{"core.memo_hit_rate", "ratio"},
	{"core.resumed_runs", "count"},
	{"core.replayed_tasks", "count"},
	{"core.rollback_depth", "count"},
	{"core.window_runs", "count"},
	{"core.speculative_useful_ratio", "ratio"},
	{"core.probe_fanouts", "count"},
	{"core.pruned_runs", "count"},
	// redist: block-cyclic redistribution pricing.
	{"redist.fastcost_ns_per_edge", "ns"},
	{"redist.edges_priced", "count"},
	// model and synth: input preparation.
	{"model.tables_s", "s"},
	{"synth.generate_s", "s"},
	// audit: the schedule oracle.
	{"audit.check_s", "s"},
	// serve: fingerprinting, wire codec, L1 and L2 caches.
	{"serve.fingerprint_s", "s"},
	{"serve.wire_req_encode_s", "s"},
	{"serve.wire_req_decode_s", "s"},
	{"serve.wire_sched_encode_s", "s"},
	{"serve.wire_sched_decode_s", "s"},
	{"serve.inproc_hit_s", "s"},
	{"serve.inproc_miss_s", "s"},
	{"serve.l2_get_s", "s"},
	{"serve.l2_put_s", "s"},
	{"serve.requests", "count"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.scheduled", "count"},
	{"serve.rejected", "count"},
	{"serve.l2_hits", "count"},
	{"serve.l2_writes", "count"},
	{"serve.shared_state_hit_rate", "ratio"},
	{"serve.evictions", "count"},
	// httpserve: the HTTP transport and fleet client.
	{"httpserve.overhead_s", "s"},
	{"httpserve.hedges", "count"},
	{"httpserve.failovers", "count"},
	{"httpserve.revalidated", "count"},
	{"httpserve.shed", "count"},
	{"httpserve.served", "count"},
	// proc: the whole process (Go runtime, GC, worker pools).
	{"proc.cpu_per_wall", "ratio"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_s", "s"},
	{"proc.mallocs_per_op", "count"},
	// wall: the end-to-end figures on the wall clock.
	{"wall.ops_per_s", "1/s"},
	{"wall.op_p50_s", "s"},
	{"wall.op_tail_s", "s"},
	// trace: the traced run's own end-to-end figures; minus the untraced
	// run's ops_per_cpu_s and op_cpu_p50_s they give the tracing overhead.
	{"trace.ops_per_cpu_s", "1/s"},
	{"trace.op_cpu_p50_s", "s"},
}
