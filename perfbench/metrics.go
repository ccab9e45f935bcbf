package main

// The metric map. Every metric BENCHMARK.json names is declared here
// with its unit, its direction, and — for a layer metric — the
// end-to-end metric it should move and on which workloads. A layer
// metric reads 0 on a workload that does not run that layer ("measured"
// lists the ones that do); on the noChange workloads a change to the
// layer is predicted to leave every end-to-end metric where it was.
// selftest_test.go checks this table against BENCHMARK.json.

type metric struct {
	name, unit, better string
	moves              string   // end-to-end metric(s) the layer should move
	measured           []string // workloads that report it (others: 0)
	noChange           []string // workloads where the layer's changes should not show
}

var (
	allW     = []string{"bunge-gmg", "box-amg-2r", "service-resume"}
	simW     = []string{"bunge-gmg", "box-amg-2r"}
	bungeW   = []string{"bunge-gmg"}
	boxW     = []string{"box-amg-2r"}
	serviceW = []string{"service-resume"}
)

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "time_to_solution_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
	{name: "minres_iters", unit: "count", better: "lower"},
}

var perLayer = []metric{
	{"rhea.new_s", "s", "lower", "setup_s", allW, nil},
	{"rhea.solve_s", "s", "lower", "time_to_solution_s", simW, serviceW},
	{"rhea.solve_calls", "count", "lower", "time_to_solution_s", simW, serviceW},
	{"rhea.advect_s_per_step", "s", "lower", "time_to_solution_s", simW, serviceW},
	{"rhea.adapt_s", "s", "lower", "time_to_solution_s", simW, serviceW},
	{"rhea.adapt_calls", "count", "lower", "time_to_solution_s", simW, serviceW},
	{"rhea.diag_s", "s", "lower", "time_to_solution_s", simW, serviceW},
	{"rhea.checkpoint_s", "s", "lower", "scenario.job_latency_s.p50 scenario.resume_latency_s.p50 time_to_solution_s", serviceW, simW},
	{"rhea.restore_s", "s", "lower", "scenario.resume_latency_s.p50 time_to_solution_s", serviceW, simW},

	{"stokes.setup_s", "s", "lower", "setup_s time_to_solution_s", simW, serviceW},
	{"stokes.update_s", "s", "lower", "time_to_solution_s", simW, serviceW},
	{"stokes.op_apply_s", "s", "lower", "time_to_solution_s", simW, serviceW},
	{"stokes.precond_apply_s", "s", "lower", "time_to_solution_s", simW, serviceW},

	{"matfree.elem_per_s", "1/s", "higher", "time_to_solution_s alloc_mb", bungeW, boxW},
	{"matfree.allocs_per_apply", "count", "lower", "time_to_solution_s alloc_mb", bungeW, boxW},

	{"gmg.vcycle_s", "s", "lower", "time_to_solution_s alloc_mb", bungeW, []string{"box-amg-2r", "service-resume"}},
	{"gmg.allocs_per_vcycle", "count", "lower", "time_to_solution_s alloc_mb", bungeW, []string{"box-amg-2r", "service-resume"}},
	{"gmg.levels", "count", "higher", "time_to_solution_s minres_iters", bungeW, []string{"box-amg-2r", "service-resume"}},
	{"gmg.coarse_elems", "count", "lower", "time_to_solution_s", bungeW, []string{"box-amg-2r", "service-resume"}},

	{"krylov.iter_s", "s", "lower", "time_to_solution_s", simW, nil},
	{"krylov.vector_s_per_iter", "s", "lower", "time_to_solution_s", simW, nil},
	{"krylov.allocs_per_iter", "count", "lower", "time_to_solution_s alloc_mb", simW, nil},
	{"krylov.iters_per_solve", "count", "lower", "time_to_solution_s minres_iters", simW, nil},

	{"la.ghost_gather_s", "s", "lower", "time_to_solution_s", simW, bungeW},
	{"la.ghost_allocs_per_gather", "count", "lower", "time_to_solution_s alloc_mb", simW, bungeW},
	{"mesh.extract_s", "s", "lower", "time_to_solution_s", simW, nil},

	{"sim.user_msgs", "count", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"sim.coll_msgs", "count", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"sim.user_mb", "MB", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"sim.coll_mb", "MB", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"sim.coll_calls", "count", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"sim.coll_rounds_per_iter", "count", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"sim.allreduce_s", "s", "lower", "time_to_solution_s", simW, []string{"bunge-gmg", "service-resume"}},
	{"comm_msgs", "count", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"comm_mb", "MB", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},
	{"coll_rounds", "count", "lower", "time_to_solution_s", boxW, []string{"bunge-gmg", "service-resume"}},

	{"ckpt.write_s", "s", "lower", "scenario.job_latency_s.p50 time_to_solution_s", serviceW, simW},
	{"ckpt.read_s", "s", "lower", "scenario.resume_latency_s.p50 time_to_solution_s", serviceW, simW},
	{"ckpt.snapshot_kb", "kB", "lower", "scenario.job_latency_s.p50 scenario.resume_latency_s.p50", serviceW, simW},

	{"scenario.job_latency_s.p50", "s", "lower", "time_to_solution_s", serviceW, simW},
	{"scenario.resume_latency_s.p50", "s", "lower", "time_to_solution_s", serviceW, simW},
	{"scenario.queue_wait_s", "s", "lower", "scenario.job_latency_s.p50", serviceW, simW},
	{"scenario.http_s", "s", "lower", "scenario.job_latency_s.p50", serviceW, simW},
	{"scenario.journal_kb_per_job", "kB", "lower", "scenario.job_latency_s.p50", serviceW, simW},
	{"scenario.retries", "count", "lower", "scenario.job_latency_s.p50", serviceW, simW},

	{"go.gc_cycles", "count", "lower", "time_to_solution_s alloc_mb", allW, nil},
	{"go.gc_pause_s", "s", "lower", "time_to_solution_s", allW, nil},

	{"trace.overhead_s", "s", "lower", "none (traced minus untraced time_to_solution_s)", allW, nil},
	{"trace.uncovered_share", "ratio", "lower", "none (share of traced time_to_solution_s outside rhea.* or client spans)", allW, nil},
}

// metricsFor lists the metrics a run prints.
func metricsFor(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// applies reports whether metric m is measured on workload w.
func (m metric) applies(w string) bool {
	for _, x := range m.measured {
		if x == w {
			return true
		}
	}
	return false
}
