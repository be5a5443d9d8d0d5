package main

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEndMetrics are what a user of gfre or gfred sees, measured with
// tracing off on every workload. perfbench/README.md defines each.
var endToEndMetrics = []metricDef{
	{"extract_s", "s"},
	{"job_p50_s", "s"},
	{"jobs_per_min", "1/min"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics are read in the traced replay, one layer at a time.
var perLayerMetrics = []metricDef{
	{"gen.build_s", "s"},
	{"netlist.parse_s", "s"},
	{"checkpoint.hash_s", "s"},
	{"sem.analyze_s", "s"},
	{"netlint.analyze_s", "s"},
	{"netlint.source_s", "s"},
	{"netlint.saturated_cones", "count"},
	{"netlint.degree_cones", "count"},
	{"netlint.blowup_warnings", "count"},
	{"netlint.peak_overestimate", "ratio"},
	{"rewrite.outputs_s", "s"},
	{"rewrite.cone_cpu_s", "s"},
	{"rewrite.slowest_cone_s", "s"},
	{"rewrite.substitutions", "count"},
	{"rewrite.cone_gates", "count"},
	{"rewrite.useful_frac", "ratio"},
	{"rewrite.peak_terms", "count"},
	{"rewrite.cancelled", "count"},
	{"rewrite.alloc_mb", "MiB"},
	{"rewrite.gc_cycles", "count"},
	{"extract.algorithm2_s", "s"},
	{"extract.golden_s", "s"},
	{"extract.verify_s", "s"},
	{"server.submit_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.run_s", "s"},
	{"server.overhead_s", "s"},
	{"server.notify_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}
