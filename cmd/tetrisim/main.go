// Command tetrisim runs a single cluster-scheduling simulation and prints
// the paper's success metrics.
//
// Usage:
//
//	tetrisim -cluster rc80 -workload gshet -sched tetrisched -jobs 120
//	tetrisim -sched ng -plan-ahead 144 -err -20
//	tetrisim -sched cs -workload grmix -cluster rc256 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tetrisched/internal/capsched"
	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/telemetry"
	"tetrisched/internal/trace"
	"tetrisched/internal/viz"
	"tetrisched/internal/workload"
)

func main() {
	var (
		clusterName = flag.String("cluster", "rc80", "cluster: rc80 | rc256 (het variants: rc80het, rc256het)")
		mixName     = flag.String("workload", "gsmix", "workload: grslo | grmix | gsmix | gshet")
		schedName   = flag.String("sched", "tetrisched", "scheduler: tetrisched | nh | ng | np | cs")
		jobs        = flag.Int("jobs", 150, "number of jobs")
		seed        = flag.Int64("seed", 1, "workload seed")
		estErr      = flag.Float64("err", 0, "runtime estimate error in percent (e.g. -50, 100)")
		planAhead   = flag.Int64("plan-ahead", 96, "plan-ahead window in seconds")
		cycle       = flag.Int64("cycle", 4, "scheduling cycle period in seconds")
		util        = flag.Float64("util", 1.0, "offered load as a fraction of capacity")
		slackMin    = flag.Float64("slack-min", 0, "deadline slack lower bound (×runtime; 0 = mix default)")
		slackMax    = flag.Float64("slack-max", 0, "deadline slack upper bound (×runtime; 0 = mix default)")
		limit       = flag.Duration("solver-limit", 300*time.Millisecond, "MILP work budget per solve, in seconds of a reference machine's LP work (a count, so runs repeat on any machine)")
		noPresolve  = flag.Bool("no-presolve", false, "disable MILP presolve/model reduction (bisection switch)")
		noCompCache = flag.Bool("no-compile-cache", false, "disable the cross-cycle caches: expressions, compiled classes, replayed sub-solutions (bisection switch)")
		shards      = flag.Int("shards", 0, "sharded control plane: concurrent per-shard planners with optimistic commit (0 = monolithic)")
		verbose     = flag.Bool("v", false, "print solver telemetry and per-job outcomes")
		gantt       = flag.Bool("gantt", false, "render the space-time schedule grid")
		saveTrace   = flag.String("save-trace", "", "write the generated workload to a JSON trace file")
		loadTrace   = flag.String("load-trace", "", "replay a JSON trace file instead of generating")
		execTrace   = flag.String("trace", "", "stream an execution trace to this file: .jsonl = JSON Lines, anything else = Chrome trace-event JSON (Perfetto)")
	)
	flag.Parse()

	var tracer *trace.Tracer
	var traceFile *os.File
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			fatal("trace: %v", err)
		}
		traceFile = f
		var sink trace.Sink
		if strings.HasSuffix(*execTrace, ".jsonl") {
			sink = trace.NewJSONLSink(f)
		} else {
			sink = trace.NewChromeSink(f)
		}
		tracer = trace.New(1024).SetSink(sink)
	}

	var c *cluster.Cluster
	switch strings.ToLower(*clusterName) {
	case "rc80":
		c = cluster.RC80(strings.Contains(strings.ToLower(*mixName), "het"))
	case "rc80het":
		c = cluster.RC80(true)
	case "rc256":
		c = cluster.RC256(strings.Contains(strings.ToLower(*mixName), "het"))
	case "rc256het":
		c = cluster.RC256(true)
	default:
		fatal("unknown cluster %q", *clusterName)
	}

	var mix workload.Mix
	switch strings.ToLower(*mixName) {
	case "grslo":
		mix = workload.GRSLO(*jobs)
	case "grmix":
		mix = workload.GRMIX(*jobs)
	case "gsmix":
		mix = workload.GSMIX(*jobs)
	case "gshet":
		mix = workload.GSHET(*jobs)
	default:
		fatal("unknown workload %q", *mixName)
	}
	mix.EstErr = *estErr / 100
	mix.TargetUtil = *util
	if *slackMin > 0 {
		mix.DeadlineSlackMin = *slackMin
	}
	if *slackMax > 0 {
		mix.DeadlineSlackMax = *slackMax
	}

	var jobsList []*workload.Job
	if *loadTrace != "" {
		var err error
		jobsList, err = workload.LoadTrace(*loadTrace)
		if err != nil {
			fatal("load trace: %v", err)
		}
	} else {
		var err error
		jobsList, err = workload.Generate(mix, c, *seed)
		if err != nil {
			fatal("generate: %v", err)
		}
	}
	if *saveTrace != "" {
		if err := workload.SaveTrace(*saveTrace, jobsList); err != nil {
			fatal("save trace: %v", err)
		}
	}

	plan := rayon.NewPlan(c.N(), *cycle)
	var sched sim.Scheduler
	base := core.Config{CyclePeriod: *cycle, PlanAhead: *planAhead,
		SolverTimeLimit: *limit, Tracer: tracer,
		DisablePresolve: *noPresolve, DisableCompileCache: *noCompCache, Shards: *shards}
	switch strings.ToLower(*schedName) {
	case "tetrisched", "full":
		sched = core.New(c, base)
	case "nh":
		base.NoHet = true
		sched = core.New(c, base)
	case "ng":
		base.Greedy = true
		sched = core.New(c, base)
	case "np":
		base.PlanAhead = 0
		sched = core.New(c, base)
	case "cs", "rayoncs":
		sched = capsched.New(c, plan)
	default:
		fatal("unknown scheduler %q", *schedName)
	}

	start := time.Now()
	res, err := sim.Run(sim.Config{
		Cluster: c, Jobs: jobsList, Scheduler: sched, Plan: plan, CyclePeriod: *cycle,
		Tracer: tracer,
	})
	if err != nil {
		fatal("simulation: %v", err)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal("trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fatal("trace: %v", err)
		}
		fmt.Printf("execution trace written to %s\n", *execTrace)
	}
	sum := metrics.Summarize(sched.Name(), res, c.N())
	fmt.Printf("cluster=%s workload=%s jobs=%d err=%+.0f%% plan-ahead=%ds\n",
		*clusterName, mix.Name, len(jobsList), *estErr, *planAhead)
	fmt.Println(sum)
	fmt.Printf("categories: accepted-SLO=%d SLO-no-res=%d BE=%d; sim-makespan=%ds wall=%v\n",
		sum.NumAccepted, sum.NumNoRes, sum.NumBE, res.Makespan, time.Since(start).Round(time.Millisecond))
	if len(sum.SolverLatencies) > 0 {
		cdf := metrics.NewDurationCDF(sum.SolverLatencies)
		fmt.Printf("solver latency: mean=%.1fms p50=%.1fms p99=%.1fms\n",
			cdf.Mean(), cdf.Percentile(50), cdf.Percentile(99))
	}
	if *gantt {
		fmt.Println()
		viz.Render(os.Stdout, c, res, viz.Options{MaxRows: 48})
	}
	if *verbose {
		if cs, ok := sched.(*core.Scheduler); ok {
			lines := telemetry.Lines(core.SolverMetrics, &cs.Stats)
			if sh := cs.ShardStatsSnapshot(); sh.Shards > 0 {
				lines = append(lines, telemetry.Lines(core.ShardMetrics, &sh)...)
			}
			fmt.Println(strings.Join(lines, "\n"))
		}
		fmt.Println("\n  id class type  k   submit    start   finish deadline  outcome")
		for i := range res.Stats {
			st := &res.Stats[i]
			outcome := "completed"
			switch {
			case st.Dropped:
				outcome = "dropped"
			case st.Job.Class == workload.SLO && st.MetSLO():
				outcome = "met-SLO"
			case st.Job.Class == workload.SLO:
				outcome = "missed-SLO"
			}
			fmt.Printf("%4d %5s %4s %2d %8d %8d %8d %8d  %s\n",
				st.Job.ID, st.Job.Class, st.Job.Type, st.Job.K,
				st.Job.Submit, st.Start, st.Finish, st.Job.Deadline, outcome)
		}
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tetrisim: "+format+"\n", args...)
	os.Exit(1)
}
