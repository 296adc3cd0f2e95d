package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// decl declares one metric: its name and unit, as BENCHMARK.json lists them,
// and how a finished run yields its value. The two tables below are the only
// place a metric is defined; the drift test holds BENCHMARK.json to them.
type decl struct {
	name, unit string
	value      func(r *run) float64
}

// endToEnd is what a user of the scheduler sees and this box can repeat
// within a tenth, measured with tracing off. Every workload reports every one
// of them, and none can be zero. Cycle latency and throughput are what a user
// sees first, but no timing repeats within a tenth here (README, Noise
// floor), so they are the sched.* per-layer metrics below.
var endToEnd = []decl{
	// Median over the run's repetitions of: cluster build, workload
	// generation, admission plan, scheduler construction, and (resident_*)
	// blocker launch plus warm cycles, or (frontdoor_open) daemon and listener
	// start.
	{"setup_s", "s", func(r *run) float64 { return r.setupS.median() }},
	// runtime.MemStats.TotalAlloc growth over the measure phases, per job
	// pending per busy cycle: the garbage one cycle makes to consider one job.
	// Per cycle alone (proc.alloc_mb_per_cycle) follows the backlog, which a
	// seed's jitter moves by 7% a trace; this does not.
	{"alloc_kb_per_job_cycle", "KB", func(r *run) float64 {
		return r.allocPer(func(rp *repRec) float64 { return float64(rp.pending) }) / (1 << 10)
	}},
}

// timing is the scheduler's speed as a user sees it, through the steady view
// (run.steady): the floor over rounds, not a percentile of everything that
// was observed. An untraced run prints it for the reader; the traced run
// reports it among the per-layer metrics, beside the pooled core.cycle_ms_*.
var timing = []decl{
	// Wall time of one Cycle call that had pending work; on frontdoor_open the
	// /v1/cycle round trip the node manager saw.
	{"sched.cycle_floor_ms_p50", "ms", func(r *run) float64 { return r.steady().pct(50) }},
	{"sched.cycle_floor_ms_p95", "ms", func(r *run) float64 { return r.steady().pct(95) }},
	// Jobs disposed of (launched or dropped) per second spent inside
	// Submit+JobFinished+Cycle (frontdoor_open: inside the daemon's handlers):
	// the arrival rate the scheduler could sustain on inputs like these.
	{"sched.floor_jobs_per_s", "jobs/s", (*run).jobsPerSecond},
}

// perLayer comes from the traced run: spans the harness records around the
// calls into each layer, the scheduler's own always-on counters, and the
// offline stage replay of captured cycle inputs. Prefix = module.
var perLayer = append(append([]decl{}, timing...), []decl{
	// httpapi: non-zero on frontdoor_open only.
	{"httpapi.submit_handler_us_p50", "us", func(r *run) float64 { return r.fd.submitHandlerUS.pct(50) }},
	{"httpapi.submit_handler_us_p95", "us", func(r *run) float64 { return r.fd.submitHandlerUS.pct(95) }},
	{"httpapi.cycle_handler_self_ms_p50", "ms", func(r *run) float64 { return r.fd.cycleHandlerSelf.pct(50) }},
	{"httpapi.complete_handler_us_p50", "us", func(r *run) float64 { return r.fd.completeHandlerUS.pct(50) }},
	{"httpapi.queue_wait_ms_p50", "ms", func(r *run) float64 { return r.fd.queueWait.pct(50) }},
	{"httpapi.requests", "count", func(r *run) float64 { return float64(r.fd.requests) }},
	{"httpapi.rejected_429", "count", func(r *run) float64 { return float64(r.fd.rejected429) }},
	{"httpapi.errors_5xx", "count", func(r *run) float64 { return float64(r.fd.errors5xx) }},

	// core: the wrapped calls and the scheduler's own meters.
	{"core.cycle_ms_p50", "ms", func(r *run) float64 { return r.coreMS.pct(50) }},
	{"core.cycle_ms_p95", "ms", func(r *run) float64 { return r.coreMS.pct(95) }},
	{"core.cycle_ms_max", "ms", func(r *run) float64 { return r.coreMS.max() }},
	{"core.submit_us_mean", "us", func(r *run) float64 { return ratio(float64(r.submitNS)/1e3, float64(r.submits)) }},
	{"core.finished_us_mean", "us", func(r *run) float64 { return ratio(float64(r.finishedNS)/1e3, float64(r.finishes)) }},
	{"core.cycles", "count", func(r *run) float64 { return float64(r.coreMS.n()) }},
	{"core.pending_mean", "count", func(r *run) float64 { return ratio(float64(r.pendingSum), float64(r.coreMS.n())) }},
	{"core.pending_max", "count", func(r *run) float64 { return float64(r.pendingMax) }},
	{"core.decisions", "count", func(r *run) float64 { return float64(r.decisions) }},
	{"core.dropped", "count", func(r *run) float64 { return float64(r.dropped) }},
	{"core.preempted", "count", func(r *run) float64 { return float64(r.preempted) }},
	{"core.expr_hit_rate", "ratio", func(r *run) float64 { return ratio(float64(r.st.ExprHits), float64(r.st.ExprHits+r.st.ExprMisses)) }},
	{"core.compile_skip_rate", "ratio", func(r *run) float64 { return r.st.CompileSkipRate() }},
	{"core.reuse_hit_rate", "ratio", func(r *run) float64 { return r.st.ReuseHitRate() }},
	{"core.generate_ms_per_cycle", "ms", func(r *run) float64 { return r.perCycle(float64(r.st.GenerateNS) / 1e6) }},
	{"core.compile_ms_per_cycle", "ms", func(r *run) float64 { return r.perCycle(float64(r.st.CompileNS) / 1e6) }},
	{"core.solve_ms_per_cycle", "ms", func(r *run) float64 { return r.perCycle(ms(r.st.Runtime)) }},
	// The cycle minus those three: ordering, cache bookkeeping, extract, commit.
	{"core.other_ms_per_cycle", "ms", func(r *run) float64 {
		return r.perCycle(r.coreCycleSum() - float64(r.st.GenerateNS+r.st.CompileNS)/1e6 - ms(r.st.Runtime))
	}},
	{"core.solver_timeouts", "count", func(r *run) float64 { return float64(r.timeouts) }},
	{"core.solver_max_ms", "ms", func(r *run) float64 { return ms(r.maxSolver) }},

	// strlgen, compiler, milp: cold cost per stage on the captured inputs.
	{"strlgen.generate_us_per_job", "us", func(r *run) float64 { return ratio(float64(r.rp.genNS)/1e3, float64(r.rp.genJobs)) }},
	{"strlgen.options_per_job", "count", func(r *run) float64 { return ratio(float64(r.rp.options), float64(r.rp.genJobs-r.rp.culled)) }},
	{"strlgen.culled_jobs", "count", func(r *run) float64 { return float64(r.rp.culled) }},
	{"compiler.compile_ms_p50", "ms", func(r *run) float64 { return r.rp.compileMS.pct(50) }},
	{"compiler.components_us_p50", "us", func(r *run) float64 { return r.rp.componentsUS.pct(50) }},
	{"compiler.fingerprint_us_p50", "us", func(r *run) float64 { return r.rp.fingerprintUS.pct(50) }},
	{"compiler.decode_us_p50", "us", func(r *run) float64 { return r.rp.decodeUS.pct(50) }},
	{"compiler.vars_mean", "count", func(r *run) float64 { return ratio(float64(r.rp.vars), float64(r.rp.samples)) }},
	{"compiler.rows_mean", "count", func(r *run) float64 { return ratio(float64(r.rp.rows), float64(r.rp.samples)) }},
	{"compiler.components_mean", "count", func(r *run) float64 { return ratio(float64(r.rp.comps), float64(r.rp.samples)) }},
	{"milp.presolve_ms_p50", "ms", func(r *run) float64 { return r.rp.presolveMS.pct(50) }},
	{"milp.solve_ms_p50", "ms", func(r *run) float64 { return r.rp.solveMS.pct(50) }},
	{"milp.solve_ms_p95", "ms", func(r *run) float64 { return r.rp.solveMS.pct(95) }},
	{"milp.nodes_per_solve", "count", func(r *run) float64 { return ratio(float64(r.rp.nodes), float64(r.rp.solves)) }},
	{"milp.lp_iters_per_solve", "count", func(r *run) float64 { return ratio(float64(r.rp.lpIters), float64(r.rp.solves)) }},
	{"milp.warm_lp_rate", "ratio", func(r *run) float64 { return ratio(float64(r.rp.warmLPs), float64(r.rp.warmLPs+r.rp.coldLPs)) }},
	{"milp.presolve_rows_removed_pct", "%", func(r *run) float64 { return 100 * ratio(float64(r.rp.rowsDropped), float64(r.rp.solverRows)) }},
	{"milp.cut_rounds", "count", func(r *run) float64 { return float64(r.rp.cutRounds) }},
	{"milp.factorizations_per_solve", "count", func(r *run) float64 { return ratio(float64(r.rp.factorizations), float64(r.rp.solves)) }},
	{"milp.optimal_rate", "ratio", func(r *run) float64 { return ratio(float64(r.rp.optimal), float64(r.rp.solves)) }},
	// The solver's share of the live cycle, from the scheduler's own meters.
	{"milp.share_of_cycle_pct", "%", func(r *run) float64 { return 100 * ratio(ms(r.st.Runtime), r.coreCycleSum()) }},
	{"replay.samples", "count", func(r *run) float64 { return float64(r.rp.samples) }},

	// shard: non-zero on trace_gshet_shards4 only.
	{"shard.assign_us_p50", "us", func(r *run) float64 { return r.rp.assignUS.pct(50) }},
	{"shard.conflict_rate", "ratio", func(r *run) float64 {
		return ratio(float64(r.sh.Conflicts), float64(r.decisions)+float64(r.sh.Conflicts))
	}},
	{"shard.requeued", "count", func(r *run) float64 { return float64(r.sh.Requeued) }},
	{"shard.spanning_per_cycle", "count", func(r *run) float64 { return ratio(float64(r.sh.Spanning), float64(r.sh.Cycles)) }},
	{"shard.arb_launched", "count", func(r *run) float64 { return float64(r.sh.ArbLaunched) }},

	{"rayon.admit_us_per_job", "us", func(r *run) float64 { return ratio(float64(r.admitNS)/1e3, float64(r.admitJobs)) }},
	{"rayon.accept_rate", "ratio", func(r *run) float64 { return ratio(float64(r.admitAccepted), float64(r.admitJobs)) }},

	// The harness's own overhead and validity checks; not targets.
	{"sim.driver_self_ms_per_cycle", "ms", func(r *run) float64 { return r.perCycle(ms(r.driverSelf)) }},
	{"sim.driver_self_pct", "%", func(r *run) float64 { return 100 * ratio(ms(r.driverSelf), ms(r.busy)) }},
	{"gen.late_ms_p95", "ms", func(r *run) float64 { return r.fd.genLate.pct(95) }},
	{"driver.late_ms_p95", "ms", func(r *run) float64 { return r.fd.drvLate.pct(95) }},
	{"proc.alloc_mb_per_cycle", "MB", func(r *run) float64 {
		return r.allocPer(func(rp *repRec) float64 { return float64(len(rp.cycles)) }) / (1 << 20)
	}},
	{"proc.peak_rss_mb", "MB", func(r *run) float64 { return peakRSSMB() }},
	{"proc.gc_pause_ms_total", "ms", func(r *run) float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.PauseTotalNs) / 1e6
	}},
	// Time the harness spent on traced-only bookkeeping (spans, captures)
	// relative to busy time. The full set also prints traced vs untraced busy
	// time side by side.
	{"proc.trace_overhead_pct", "%", func(r *run) float64 {
		return 100 * ratio(float64(r.traceNS)+float64(len(r.rec.spans))*spanCostNS(), float64(r.busy))
	}},

	// Schedule quality and the submitter's view. These are what a user sees,
	// but the resident_* workloads launch nothing, so they cannot be
	// end-to-end metrics of every workload; run.correct holds SLO attainment
	// to a floor instead.
	{"quality.slo_attainment_pct", "%", func(r *run) float64 { return r.sloPct() }},
	{"quality.be_latency_s", "s", func(r *run) float64 { return ratio(r.beLatSum, float64(r.beDone)) }},
	{"frontdoor.submit_to_launch_ms_p50", "ms", func(r *run) float64 { return r.fd.submitToLaunch.pct(50) }},
	{"frontdoor.submit_to_launch_ms_p95", "ms", func(r *run) float64 { return r.fd.submitToLaunch.pct(95) }},
	{"frontdoor.submit_rtt_ms_p95", "ms", func(r *run) float64 { return r.fd.submitRTT.pct(95) }},
	{"frontdoor.launched_jobs_per_s", "jobs/s", func(r *run) float64 { return ratio(float64(r.fd.launched), r.fd.wall.Seconds()) }},
}...)

func (r *run) coreCycleSum() float64 { return r.coreMS.mean() * float64(r.coreMS.n()) }

// perCycle spreads a total over the busy cycles the scheduler ran.
func (r *run) perCycle(total float64) float64 { return ratio(total, float64(r.coreMS.n())) }

// spanCostNS calibrates what recording one span costs.
func spanCostNS() float64 {
	rec := newRecorder()
	const n = 20000
	t0 := rec.begin("calibrate", -1, 0)
	for i := 0; i < n; i++ {
		rec.end(rec.begin("x", -1, 0))
	}
	rec.end(t0)
	return float64(rec.spans[t0].dur()) / n
}

// peakRSSMB reads the process's high-water resident set from /proc; 0 where
// that does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func evaluate(decls []decl, r *run) map[string]metric {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		out[d.name] = metric{Value: d.value(r), Unit: d.unit}
	}
	return out
}
