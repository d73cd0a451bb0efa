package main

import "repro/internal/experiments"

// metricSpec names one metric. BENCHMARK.json lists the same names,
// units and directions (bench_test.go holds the two together); Moves
// says which end-to-end metric, on which workload, a change to the
// per-layer figure should show up in.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	Moves  string  // per-layer only
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports every one of them. Each bound is at least
// three times the widest spread (interquartile range over median of ten
// runs on ten seeds) any workload showed on the box that defined the
// benchmark, see RESULTS.md: a bound is shared by all workloads, so
// live_coupling's timing-dependent allocation and the host's noise on
// wall time set it, not the simulator's exact counts.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "mallocs_k", Unit: "k", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is reported by the traced run. A figure is 0 on a workload
// that does not exercise its layer (no chaos operations on wide_ring,
// no seconds spent in experiment T1 on live_coupling).
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	const (
		simulated = "wall_s on every simulated workload"
		counts    = "forced_clc_per_kmsg, rollbacks_per_failure"
		live      = "wall_s, msgs_per_s on live_coupling"
	)
	m := []metricSpec{
		// Outcomes that only some workloads have. They are end-to-end
		// in meaning but sit here because an end-to-end metric must be
		// reported by every workload; the simulated-time ones repeat
		// exactly for a seed.
		{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Moves: "host time; wide_ring, openloop_heavy, live_coupling"},
		{Name: "stable_p50_ms", Unit: "ms", Better: "lower", Moves: "simulated time; openloop_heavy"},
		{Name: "stable_p99_ms", Unit: "ms", Better: "lower", Moves: "simulated time; openloop_heavy"},
		{Name: "unstable_share", Unit: "share", Better: "lower", Moves: "simulated time; openloop_heavy"},
		{Name: "forced_clc_per_kmsg", Unit: "1/kmsg", Better: "lower", Moves: "simulated time; wide_ring, openloop_heavy, chaos_sweep"},
		{Name: "rollbacks_per_failure", Unit: "ratio", Better: "lower", Moves: "simulated time; wide_ring, openloop_heavy, chaos_sweep"},

		{Name: "sim.events", Unit: "count", Better: "lower", Moves: simulated},
		{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Moves: simulated},
		{Name: "sim.events_per_msg", Unit: "ratio", Better: "lower", Moves: simulated + " (waste ratio)"},
		{Name: "sim.engine_ns_per_event", Unit: "ns", Better: "lower", Moves: "wall_s, most on openloop_heavy"},
		{Name: "sim.histogram_ns_per_observe", Unit: "ns", Better: "lower", Moves: "wall_s on openloop_heavy, nothing elsewhere"},
		{Name: "sim.cpu_share", Unit: "share", Better: "lower", Moves: simulated},

		{Name: "netsim.msgs", Unit: "count", Better: "lower", Moves: simulated},
		{Name: "netsim.bytes", Unit: "bytes", Better: "lower", Moves: simulated},
		{Name: "netsim.ns_per_msg_intra", Unit: "ns", Better: "lower", Moves: "wall_s on paper_eval"},
		{Name: "netsim.ns_per_msg_inter", Unit: "ns", Better: "lower", Moves: "wall_s, msgs_per_s on wide_ring"},
		{Name: "netsim.trace_retransmits", Unit: "count", Better: "lower", Moves: "stable_p99_ms on openloop_heavy"},
		{Name: "netsim.cpu_share", Unit: "share", Better: "lower", Moves: simulated},

		{Name: "core.clc_committed", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.clc_forced", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.rollbacks", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.rollbacks_cascaded", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.log_appended", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.log_resent", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.msgs_held", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.gc_rounds", Unit: "count", Better: "lower", Moves: counts},
		{Name: "core.gc_clcs_removed", Unit: "count", Better: "higher", Moves: "peak_rss_mb on wide_ring, openloop_heavy"},
		{Name: "core.ns_per_onmessage", Unit: "ns", Better: "lower", Moves: "wall_s on paper_eval, no move on wide_ring"},
		{Name: "core.us_per_clc_n100", Unit: "us", Better: "lower", Moves: "wall_s on paper_eval, no move on wide_ring"},
		{Name: "core.ns_per_piggyback_w1024", Unit: "ns", Better: "lower", Moves: "wall_s, msgs_per_s on wide_ring"},
		{Name: "core.us_per_clc_w1024", Unit: "us", Better: "lower", Moves: "wall_s, alloc_mb on wide_ring, no move on paper_eval"},
		{Name: "core.hc3i_ms", Unit: "ms", Better: "lower", Moves: "wall_s on paper_eval (beside the baseline.* figures)"},
		{Name: "core.cpu_share", Unit: "share", Better: "lower", Moves: "wall_s on every workload"},

		{Name: "app.openloop_compile_s", Unit: "s", Better: "lower", Moves: "setup_s on openloop_heavy"},
		{Name: "app.ns_per_arrival", Unit: "ns", Better: "lower", Moves: "wall_s on openloop_heavy"},
		{Name: "app.ns_per_snapshot", Unit: "ns", Better: "lower", Moves: "wall_s on openloop_heavy"},
		{Name: "app.lost_work_s", Unit: "s", Better: "lower", Moves: "rollbacks_per_failure"},
		{Name: "app.cpu_share", Unit: "share", Better: "lower", Moves: simulated},

		{Name: "oracle.overhead_share", Unit: "share", Better: "lower", Moves: "wall_s on chaos_sweep (always checked), no move on the untraced others"},
		{Name: "oracle.replay_events_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s on live_coupling"},
		{Name: "oracle.violations", Unit: "count", Better: "lower", Moves: "failed"},
		{Name: "oracle.cpu_share", Unit: "share", Better: "lower", Moves: "wall_s on chaos_sweep"},

		{Name: "federation.new_s", Unit: "s", Better: "lower", Moves: "setup_s (chiefly wide_ring), wall_s on chaos_sweep"},
		{Name: "federation.run_s", Unit: "s", Better: "lower", Moves: simulated},
		{Name: "federation.cpu_share", Unit: "share", Better: "lower", Moves: simulated},

		{Name: "chaos.ops", Unit: "count", Better: "higher", Moves: "wall_s on chaos_sweep"},
		{Name: "chaos.runs_per_s", Unit: "1/s", Better: "higher", Moves: "wall_s on chaos_sweep"},
		{Name: "chaos.cpu_share", Unit: "share", Better: "lower", Moves: "wall_s on chaos_sweep"},

		{Name: "baseline.global_ms", Unit: "ms", Better: "lower", Moves: "wall_s on paper_eval"},
		{Name: "baseline.hier_ms", Unit: "ms", Better: "lower", Moves: "wall_s on paper_eval"},
		{Name: "baseline.pesslog_ms", Unit: "ms", Better: "lower", Moves: "wall_s on paper_eval"},
		{Name: "baseline.cpu_share", Unit: "share", Better: "lower", Moves: "wall_s on paper_eval"},
	}
	for _, id := range experiments.IDs() {
		m = append(m, metricSpec{Name: "experiments." + id + "_s", Unit: "s", Better: "lower",
			Moves: "wall_s on paper_eval"})
	}
	return append(m,
		metricSpec{Name: "runtime.start_s", Unit: "s", Better: "lower", Moves: "setup_s on live_coupling"},
		metricSpec{Name: "runtime.stop_s", Unit: "s", Better: "lower", Moves: "setup_s on live_coupling"},
		metricSpec{Name: "runtime.tcp_msgs_per_s", Unit: "1/s", Better: "higher", Moves: live},
		metricSpec{Name: "runtime.tcp_p50_us", Unit: "us", Better: "lower", Moves: live},
		metricSpec{Name: "runtime.tcp_p99_us", Unit: "us", Better: "lower", Moves: live},
		metricSpec{Name: "runtime.chan_msgs_per_s", Unit: "1/s", Better: "higher", Moves: live + " (event loop without gob and TCP)"},
		metricSpec{Name: "runtime.journal_events_per_s", Unit: "1/s", Better: "higher", Moves: live},
		metricSpec{Name: "runtime.journal_bytes_per_event", Unit: "bytes", Better: "lower", Moves: live},
		metricSpec{Name: "runtime.late_over_early", Unit: "ratio", Better: "higher", Moves: live + " (1.0 for a steady system)"},
		metricSpec{Name: "runtime.recover_ms", Unit: "ms", Better: "lower", Moves: "informational"},
		metricSpec{Name: "runtime.clc_committed", Unit: "count", Better: "lower", Moves: live},
		metricSpec{Name: "runtime.clc_forced", Unit: "count", Better: "lower", Moves: live},
		metricSpec{Name: "runtime.send_dropped", Unit: "count", Better: "lower", Moves: "failed"},
		metricSpec{Name: "runtime.cpu_share", Unit: "share", Better: "lower", Moves: live},

		metricSpec{Name: "soak.linejournal_appends_per_s", Unit: "1/s", Better: "higher", Moves: "runtime.journal_events_per_s"},
		metricSpec{Name: "go.runtime.cpu_share", Unit: "share", Better: "lower", Moves: "wall_s wherever alloc_mb is large (wide_ring, openloop_heavy)"},
		metricSpec{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "nothing: the cost of measuring"},
	)
}
