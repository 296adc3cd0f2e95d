package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// workloads is the registry, in the order the full set runs them.
var workloads = []*workloadDef{
	{
		name:       "trace_gshet",
		why:        "the paper's GS HET traffic through sim.Run on RC256: every layer in its natural proportion, solve dominated by the root LP",
		repeatable: true,
		inputs:     6,
		sloFloor:   97,
		layers:     func() layers { return traceLayers(0) },
		rep:        traceRep(0),
	},
	{
		name:       "trace_gshet_shards4",
		why:        "the same job stream with Shards=4: forced components, shard.Assign, optimistic commit and the arbitrator, so mono vs sharded reads off one set",
		repeatable: true,
		inputs:     4,
		sloFloor:   90,
		layers:     func() layers { return traceLayers(4) },
		rep:        traceRep(4),
	},
	{
		name:       "resident_churn1",
		why:        "72 deferring residents, 1% replaced per cycle: the expression, compile and fingerprint caches hit and milp solves one dirty component",
		repeatable: true,
		inputs:     4,
		layers:     residentLayers,
		rep:        residentRep(1),
	},
	{
		name:       "resident_churn50",
		why:        "the same residents, 50% replaced per cycle: the caches mostly miss and presolve plus branch-and-bound on packing MILPs carry the cycle",
		repeatable: true,
		inputs:     4,
		layers:     residentLayers,
		rep:        residentRep(50),
	},
	{
		name:     "frontdoor_open",
		why:      "open-loop submits and a 20 ms cycle driver over loopback HTTP into httpapi on 1024 nodes: the only workload that crosses the daemon",
		inputs:   3,
		sloFloor: 90,
		layers:   frontdoorLayers,
		rep:      frontdoorRep,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The trace workloads replay one fixed GS HET arrival pattern; the seed only
// jitters it. A free seed moves busy time 4× at this load (bursts decide
// whether a backlog forms, and a backlog is what makes cycles expensive), so
// no bound could tell a regression from a different draw. Load is 0.8, where
// the 400-job pattern ends in a backlog that makes the root LP two thirds of
// the cycle; the largest solve over seeds 1–20 stays under a tenth of the
// 2 s limit. (A 2000-job pattern at this load does reach the limit on some
// draws, which makes the trajectory depend on the wall clock.)
const (
	traceBaseSeed  = 1
	traceUtil      = 0.8
	tracePlanAhead = 96
	traceJitter    = 2 // seconds, each way
)

func traceLayers(shards int) layers {
	return layers{c: cluster.RC256(true), period: cyclePeriod, planAhead: tracePlanAhead,
		maxBatch: 48, shards: shards}
}

// perturbedTrace generates the base arrival pattern and jitters every
// arrival (and with it the deadline, so slack is kept) by up to ±jitter
// seconds from the sub-seed. Jobs are renumbered in arrival order because
// the simulator wants dense IDs.
func perturbedTrace(mix workload.Mix, c *cluster.Cluster, base, sub, jitter int64) ([]*workload.Job, error) {
	jobs, err := workload.Generate(mix, c, base)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sub))
	for _, j := range jobs {
		d := rng.Int63n(2*jitter+1) - jitter
		if j.Submit+d < 0 {
			d = -j.Submit
		}
		j.Submit += d
		if j.Class == workload.SLO {
			j.Deadline += d
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
	for i, j := range jobs {
		j.ID = i
	}
	return jobs, nil
}

func traceRep(shards int) func(r *run, i int) error {
	return func(r *run, i int) error {
		t0 := time.Now()
		c := cluster.RC256(true)
		mix := workload.GSHET(r.sc.traceJobs)
		mix.TargetUtil = traceUtil
		jobs, err := perturbedTrace(mix, c, traceBaseSeed, r.inputSeed(i), traceJitter)
		if err != nil {
			return err
		}
		plan := rayon.NewPlan(c.N(), cyclePeriod)
		sched := core.New(c, core.Config{CyclePeriod: cyclePeriod, PlanAhead: tracePlanAhead, Shards: shards})
		p := newProbe(sched, c, r.label(i), r.rec, r.caps)
		r.setupS.add(time.Since(t0).Seconds())

		var res *sim.Result
		var wall time.Duration
		rp := r.measure(func() {
			t := time.Now()
			res, err = sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: p, Plan: plan, CyclePeriod: cyclePeriod})
			wall = time.Since(t)
		})
		if err != nil {
			return err
		}
		if res.Stalled {
			return fmt.Errorf("simulation stalled")
		}
		r.absorb(i, rp, p, core.SolveStats{})
		r.countCycles(rp, p)
		r.driverSelf += wall - p.busy
		sum := metrics.Summarize(p.Name(), res, c.N())
		if sum.Incomplete > 0 {
			return fmt.Errorf("%d jobs neither completed nor dropped", sum.Incomplete)
		}
		r.sloAll += sum.NumSLO
		r.sloMet += int(sum.SLOAll*float64(sum.NumSLO)/100 + 0.5)
		done := 0
		for k := range res.Stats {
			if st := &res.Stats[k]; st.Job.Class == workload.BestEffort && st.Completed {
				done++
			}
		}
		r.beDone += done
		r.beLatSum += sum.MeanBELatency * float64(done)
		if r.traced {
			r.replayAdmission(c, jobs)
		}
		return nil
	}
}

// replayAdmission times rayon.Plan.Admit over the jobs in arrival order on a
// fresh plan: the admission layer's cost and accept rate on this workload's
// real requests.
func (r *run) replayAdmission(c *cluster.Cluster, jobs []*workload.Job) {
	plan := rayon.NewPlan(c.N(), cyclePeriod)
	t0 := time.Now()
	for _, j := range jobs {
		if j.Class != workload.SLO {
			continue
		}
		r.admitJobs++
		if plan.Admit(j.ID, j.Submit, j.Deadline, j.K, j.EstRuntime(true)) != nil {
			r.admitAccepted++
		}
	}
	r.admitNS += int64(time.Since(t0))
}

// The resident workloads rebuild the root benchSchedulerCycleChurn
// construction: eight overrunning whole-rack blockers pin every believed
// release slice at 1, and nine data-local SLO residents per 8-node block
// (~108 node-slices of demand against 72 of supply) defer in place with the
// same solve inputs cycle after cycle. churnPct percent of the 72 residents
// arrive fresh each cycle as short-deadline jobs on a rotating block, which
// dirties that block's component for the two or three cycles they live. The
// scheduler is rebuilt every repetition, inside the residents' deadline identity
// band, so leaf values never shift mid-measurement. Nothing ever launches:
// this is planning cost only.
const (
	residentBlocks    = 8
	residentPerBlock  = 9
	residentPlanAhead = 40
	residentMaxBatch  = 192
)

func residentLayers() layers {
	return layers{c: cluster.RC256(false), period: cyclePeriod, planAhead: residentPlanAhead,
		maxBatch: residentMaxBatch}
}

func blockData(g int) []int {
	data := make([]int, 8)
	for i := range data {
		data[i] = g*32 + i
	}
	return data
}

func residentRep(churnPct int) func(r *run, i int) error {
	return func(r *run, i int) error {
		t0 := time.Now()
		rng := rand.New(rand.NewSource(r.inputSeed(i)))
		c := cluster.RC256(false)
		sched := core.New(c, core.Config{CyclePeriod: cyclePeriod, PlanAhead: residentPlanAhead,
			MaxBatch: residentMaxBatch})
		p := newProbe(sched, c, r.label(i), nil, nil) // set-up is not traced
		for g := 0; g < residentBlocks; g++ {
			p.Submit(0, &workload.Job{ID: 900 + g, Class: workload.BestEffort,
				Type: workload.Unconstrained, Submit: 0, K: 32, BaseRuntime: 4, Slowdown: 1})
		}
		p.Cycle(0, c.All()) // blockers launch, then overrun forever
		// This exact width order is the one the root benchmark measured its
		// sweet spot on (~50 ms per cold cycle, 40× under the solver limit);
		// shuffling it makes branch-and-bound three times slower on some
		// orders, so the seed leaves it alone.
		widths := [residentPerBlock]int{2, 3, 5, 7, 2, 3, 5, 7, 2}
		id := 0
		for g := 0; g < residentBlocks; g++ {
			for j := 0; j < residentPerBlock; j++ {
				// Slowdown 40 culls the whole-cluster fallback against the
				// 390 s deadline, which stays non-binding for the local
				// options through the repetition.
				p.Submit(4, &workload.Job{ID: id, Class: workload.SLO, Reserved: true,
					Type: workload.DataLocal, Submit: 4, K: widths[j], BaseRuntime: 12, Slowdown: 40,
					Deadline: 390, DataNodes: blockData(g)})
				id++
			}
		}
		// The seed decides on which block, and how far into the churn
		// accumulator's period, the arrivals start.
		rot, acc := rng.Intn(residentBlocks), rng.Intn(100)
		free := bitset.New(c.N()) // ground truth: never free while blockers run
		now := int64(4)
		for k := 0; k < r.sc.residentWarm; k++ {
			p.Cycle(now, free)
			now += cyclePeriod
		}
		r.setupS.add(time.Since(t0).Seconds())
		if len(p.or.violations) > 0 {
			return fmt.Errorf("oracle during set-up: %s", p.or.violations[0])
		}

		// A fresh probe for the timed cycles, carrying the mirror over.
		warm := p
		p = newProbe(sched, c, r.label(i), r.rec, r.caps)
		p.or = warm.or
		since := sched.SolveStatsSnapshot()
		nextID := 1000
		rp := r.measure(func() {
			for k := 0; k < r.sc.residentTimed; k++ {
				acc += churnPct * residentBlocks * residentPerBlock
				for acc >= 100 {
					acc -= 100
					// One live start choice and a one-slice duration: the
					// arrival dirties its block's component on entry and on
					// exit without reshaping the packing MILP.
					p.Submit(now, &workload.Job{ID: nextID, Class: workload.SLO, Reserved: true,
						Type: workload.DataLocal, Submit: now, K: 2, BaseRuntime: 4, Slowdown: 40,
						Deadline: now + 10, DataNodes: blockData(rot % residentBlocks)})
					nextID++
					rot++
				}
				p.Cycle(now, free)
				now += cyclePeriod
			}
		})
		r.absorb(i, rp, p, since)
		r.countCycles(rp, p)
		return nil
	}
}
