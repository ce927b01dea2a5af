package main

// The metric and workload tables. BENCHMARK.json at the repository root
// lists the same names, units and directions; bench_test.go asserts the two
// agree, and the bounds used by -agree are read from BENCHMARK.json.

type metricDef struct {
	name, unit string
}

// workloadNames is the run order of the all-workloads mode.
var workloadNames = []string{
	"lu_ladder", "transpose_sweep", "conv_sweep", "engine_auto",
	"toolchain_cold", "dsmd_cold", "dsmd_warm",
}

// endToEnd metrics come from the untraced run (-trace 0). Every one is
// defined, and non-zero, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"op_ms_p99", "ms"},
	{"setup_s", "s"},
}

// perLayer metrics come from the traced run (-trace 1). A metric whose
// layer does not run in a workload reads 0 there (see README.md, "Reading
// the layer table").
var perLayer = []metricDef{
	// Stage spans: totals per traced pass, or means per call where the
	// unit is us.
	{"core.build_ms", "ms"},
	{"core.build_cache_hit_us", "us"},
	{"rtl.load_ms", "ms"},
	{"bytecode.compile_program_ms", "ms"},
	{"exec.run_ms", "ms"},
	{"core.resultdoc_us", "us"},
	{"share.build_pct", "%"},
	{"share.load_pct", "%"},
	{"share.compile_program_pct", "%"},
	{"share.run_pct", "%"},
	{"share.other_pct", "%"},

	// Calibration kernels.
	{"bytecode.ns_per_instr_classic", "ns"},
	{"bytecode.ns_per_instr_compiled", "ns"},
	{"memsim.ns_per_l1_hit", "ns"},
	{"memsim.ns_per_l2_hit", "ns"},
	{"memsim.ns_per_local_miss", "ns"},
	{"memsim.ns_per_remote_miss", "ns"},
	{"memsim.ns_per_tlb_miss", "ns"},
	{"memsim.ns_per_upgrade", "ns"},
	{"memsim.ns_per_word_run", "ns"},
	{"memsim.ns_per_word_loop", "ns"},

	// Run-time model: calibrated cost x simulated count against exec.run_ms.
	{"model.dispatch_pct", "%"},
	{"model.memwalk_pct", "%"},
	{"model.residual_pct", "%"},

	// Simulated counts of one pass (exact).
	{"sim.cycles", "count"},
	{"sim.instrs", "count"},
	{"sim.accesses", "count"},
	{"sim.l1_miss", "count"},
	{"sim.l2_miss", "count"},
	{"sim.l2_miss_remote", "count"},
	{"sim.tlb_miss", "count"},
	{"sim.upgrades", "count"},
	{"sim.wait_cyc", "count"},
	{"sim.hw_div", "count"},
	{"ospage.pages_placed", "count"},
	{"ospage.spills", "count"},
	{"host.sim_minstr_per_s", "1e6/s"},
	{"host.peak_rss_mb", "MiB"},

	// The parallel engine (engine_auto).
	{"exec.epochs_committed", "count"},
	{"exec.epochs_fallback", "count"},
	{"exec.commit_ratio", "ratio"},
	{"exec.auto_over_serial", "ratio"},
	{"hostpool.peak", "count"},

	// Toolchain stages (toolchain_cold).
	{"fortran.parse_us", "us"},
	{"fortran.lines_per_s", "1/s"},
	{"sema.analyze_us", "us"},
	{"xform.transform_us_o0", "us"},
	{"xform.transform_us_o3", "us"},
	{"link.link_us", "us"},
	{"link.codegen_residual_us", "us"},
	{"obj.encode_decode_us", "us"},
	{"codegen.image_gob_us", "us"},
	{"codegen.image_gob_bytes", "bytes"},
	{"codegen.code_instrs", "count"},
	{"dist.intersect_us_blk", "us"},
	{"dist.schedule_us_blk", "us"},
	{"dist.schedule_rounds_blk", "count"},
	{"dist.intersect_us_cyc", "us"},
	{"dist.schedule_us_cyc", "us"},
	{"dist.schedule_rounds_cyc", "count"},
	{"advisor.static_ms", "ms"},

	// The service path (dsmd_cold, dsmd_warm).
	{"core.jobkey_us", "us"},
	{"service.store_get_us", "us"},
	{"service.store_put_us", "us"},
	{"service.store_open_ms", "ms"},
	{"service.submit_hit_us", "us"},
	{"service.http_overhead_us", "us"},
	{"service.batch32_warm_ms", "ms"},
	{"service.store_hit_ratio", "ratio"},
	{"service.simulations", "count"},
	{"service.cold_overhead_pct", "%"},
	{"obs.recorder_overhead_pct", "%"},
	{"obs.series_rows", "count"},

	{"trace.overhead_pct", "%"},
}

// exactLayer names the per-layer metrics that must repeat bit for bit
// between two runs of the same code.
var exactLayer = []string{
	"sim.cycles", "sim.instrs", "sim.accesses", "sim.l1_miss", "sim.l2_miss",
	"sim.l2_miss_remote", "sim.tlb_miss", "sim.upgrades", "sim.wait_cyc",
	"sim.hw_div", "ospage.pages_placed", "ospage.spills",
	"codegen.code_instrs", "dist.schedule_rounds_blk", "dist.schedule_rounds_cyc",
	"service.simulations", "obs.series_rows",
}
