package tetrisched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// parityInstance is one randomized multi-cycle scenario for the scheduler-level
// on≡off parity properties below. Jobs are rebuilt per run from the same
// sub-seed because the simulation driver mutates them (Reserved is stamped at
// submit time).
type parityInstance struct {
	c        *cluster.Cluster
	mkJobs   func() []*workload.Job
	failures []sim.NodeFailure
	cfg      core.Config
	// steady marks the crafted blocked-cluster instances that are guaranteed
	// to produce reuse hits and compile skips (an overrunning blocker pins
	// release slices while data-local jobs defer in place).
	steady bool
}

// randomParityInstance draws a cluster, workload, and configuration: mixed job
// classes and placement types, occasional estimate error (negative values
// create natural overruns), occasional node failures, and small MaxBatch
// (exercising truncation). Every 4th instance is the crafted
// steady-state scenario instead, so the on-run reliably exercises replay, and
// every 8th (chosen by idx, so neither the seeded stream nor the steady stride
// moves) solves at a work budget that cuts searches off, so both sides also
// replay, or solve again, sub-solutions that ended unproven.
func randomParityInstance(idx int, seed int64) parityInstance {
	if idx%4 == 0 {
		return steadyParityInstance(seed)
	}
	r := rand.New(rand.NewSource(seed))
	gk, gv := cluster.GPUAttr()
	b := cluster.NewBuilder()
	nodes := 0
	for i, racks := 0, 2+r.Intn(3); i < racks; i++ {
		n := 4 + r.Intn(5)
		var attrs map[string]string
		if r.Intn(3) == 0 {
			attrs = map[string]string{gk: gv}
		}
		b.AddRack(fmt.Sprintf("r%d", i), n, attrs)
		nodes += n
	}
	c := b.Build()

	nJobs := 8 + r.Intn(13)
	jobSeed := r.Int63()
	mkJobs := func() []*workload.Job {
		jr := rand.New(rand.NewSource(jobSeed))
		jobs := make([]*workload.Job, nJobs)
		for id := range jobs {
			j := &workload.Job{
				ID: id, Class: workload.BestEffort, Type: workload.Unconstrained,
				K: 1 + jr.Intn(4), BaseRuntime: int64(4 * (1 + jr.Intn(10))),
				Slowdown: float64(1 + jr.Intn(3)), Submit: int64(4 * jr.Intn(15)),
			}
			switch jr.Intn(5) {
			case 1:
				j.Type = workload.GPU
			case 2:
				j.Type = workload.MPI
			case 3:
				j.Type = workload.Elastic
				j.MinK = 1
			case 4:
				j.Type = workload.DataLocal
				lo := jr.Intn(nodes - j.K)
				for n := lo; n < lo+j.K+1 && n < nodes; n++ {
					j.DataNodes = append(j.DataNodes, n)
				}
			}
			if jr.Intn(10) < 6 {
				j.Class = workload.SLO
				j.Deadline = j.Submit + int64(float64(j.BaseRuntime)*j.Slowdown) + int64(4*(2+jr.Intn(20)))
				j.Reserved = jr.Intn(2) == 0
			}
			if jr.Intn(4) == 0 {
				j.EstErr = []float64{-0.5, -0.25, 0.5}[jr.Intn(3)]
			}
			jobs[id] = j
		}
		return jobs
	}

	inst := parityInstance{
		c:      c,
		mkJobs: mkJobs,
		cfg: core.Config{
			CyclePeriod: 4,
			PlanAhead:   int64(16 + 8*r.Intn(3)),
		},
	}
	if idx%8 == 3 {
		inst.cfg.SolverTimeLimit = truncatingLimit
	}
	if r.Intn(4) == 0 {
		inst.cfg.MaxBatch = 4
	}
	if idx%5 == 2 {
		at := int64(8 + 4*r.Intn(10))
		inst.failures = []sim.NodeFailure{{Node: r.Intn(nodes), At: at, RecoverAt: at + int64(4*(1+r.Intn(5)))}}
	}
	return inst
}

// truncatingLimit is the work budget of every 8th random parity instance: 2 ms
// is 60 units of LP work, less than many of their root LPs take.
const truncatingLimit = 2 * time.Millisecond

// steadyParityInstance crafts guaranteed replay: a whole-cluster best-effort
// blocker whose 90% runtime under-estimate makes it overrun (pinning every
// believed release slice at one), while two data-local SLO jobs with far
// deadlines and value-culled remote fallbacks defer in place until the
// blocker's true completion frees the cluster.
func steadyParityInstance(seed int64) parityInstance {
	c := cluster.NewBuilder().AddRack("r0", 8, nil).Build()
	mkJobs := func() []*workload.Job {
		jobs := []*workload.Job{{
			ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained,
			K: 8, BaseRuntime: 60, Slowdown: 1, Submit: 0, EstErr: -0.9,
		}}
		for i, lo := range []int{0, 4} {
			jobs = append(jobs, &workload.Job{
				ID: i + 1, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: 8,
				K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 400, DataNodes: []int{lo, lo + 1, lo + 2, lo + 3},
			})
		}
		return jobs
	}
	return parityInstance{
		c: c, mkJobs: mkJobs, steady: true,
		cfg: core.Config{CyclePeriod: 4, PlanAhead: 16},
	}
}

// paritySwitch is one scheduler-level switch whose two sides must schedule
// identically: what it is called, where its instances' seeds start, how it is
// thrown, and the two checks that keep the comparison honest — the off side
// never touched the machinery, the on side actually ran it.
type paritySwitch struct {
	on, off  string // the two sides, as a failure names them
	seedBase int64
	// set throws the switch on instance i's configuration.
	set func(i int, cfg *core.Config, off bool)
	// offTouched says how the off run touched the machinery, or "".
	offTouched func(off *core.Scheduler) string
	// fired returns the on run's counters (totalled over the instances under
	// the names in counters; each total must be positive) and what is wrong
	// with this instance's on run, or "".
	fired    func(on *core.Scheduler, steady bool) ([]int64, string)
	counters []string
}

// schedulerParity is the policy-invariance property of a scheduler-level
// switch: across 220 seeded multi-cycle simulations — arrivals, completions,
// drops, overruns, node failures, truncation — the run with the
// switch on produces byte-identical per-job outcomes, makespan, busy
// node-seconds and stall verdict to the run with it off.
func schedulerParity(t *testing.T, sw paritySwitch) {
	const instances = 220
	totals := make([]int64, len(sw.counters))
	unproven := 0
	for i := 0; i < instances; i++ {
		seed := sw.seedBase + int64(i)
		inst := randomParityInstance(i, seed)
		run := func(off bool) (*sim.Result, *core.Scheduler) {
			cfg := inst.cfg
			sw.set(i, &cfg, off)
			sched := core.New(inst.c, cfg)
			res, err := sim.Run(sim.Config{
				Cluster: inst.c, Jobs: inst.mkJobs(), Scheduler: sched, Failures: inst.failures,
			})
			if err != nil {
				t.Fatalf("seed %d (off=%v): %v", seed, off, err)
			}
			return res, sched
		}
		on, onSched := run(false)
		off, offSched := run(true)

		if !reflect.DeepEqual(on.Stats, off.Stats) {
			for j := range on.Stats {
				if !reflect.DeepEqual(on.Stats[j], off.Stats[j]) {
					t.Errorf("seed %d: job %d diverged:\n  %s: %+v\n  %s: %+v",
						seed, j, sw.on, on.Stats[j], sw.off, off.Stats[j])
				}
			}
		}
		if on.Makespan != off.Makespan || on.BusyNodeSeconds != off.BusyNodeSeconds || on.Stalled != off.Stalled {
			t.Errorf("seed %d: run shape diverged: makespan %d vs %d, busy %d vs %d, stalled %v vs %v",
				seed, on.Makespan, off.Makespan, on.BusyNodeSeconds, off.BusyNodeSeconds, on.Stalled, off.Stalled)
		}
		if how := sw.offTouched(offSched); how != "" {
			t.Errorf("seed %d: the %s run %s", seed, sw.off, how)
		}
		if inst.cfg.SolverTimeLimit == truncatingLimit {
			unproven += onSched.Stats.Unproven
		}
		counts, problem := sw.fired(onSched, inst.steady)
		if problem != "" {
			t.Errorf("seed %d: %s", seed, problem)
		}
		for k, n := range counts {
			totals[k] += n
		}
	}
	for k, name := range sw.counters {
		if totals[k] == 0 {
			t.Errorf("no %s across any instance; the parity property never exercised the %s path", name, sw.on)
		}
		t.Logf("aggregate %s across %d instances: %d", name, instances, totals[k])
	}
	if unproven == 0 {
		t.Errorf("no sub-solve of the instances at a %v budget ended unproven; parity never met a cut-off search", truncatingLimit)
	}
	t.Logf("aggregate unproven sub-solves across the instances at a %v budget: %d", truncatingLimit, unproven)
}

// TestCompileCacheParityProperty: the cross-cycle caches — expressions, kept
// classes and replayed sub-solutions — against DisableCompileCache, which adds
// expression-TTL expiries to what the instances exercise. It runs two seed
// ranges of 220 instances: 9000 as they come, and 17000 with sharded
// instances, because the cached batch also carries shard routing: every 6th
// instance there runs with four shards, offset from the steady stride
// (i%4==0) so sharding also meets random clusters and failures. Disabled runs
// must never touch a cache, and enabled runs must actually skip work and
// replay (every crafted steady instance, and in aggregate). Every cycle of
// both runs also ends in core's mustBeLive, which panics if the Compiled the
// cycle solved and decoded — cached, or compiled this cycle and purged from
// the cache by a launch — was compiled over meanwhile (compiler.Compiled.Stale).
func TestCompileCacheParityProperty(t *testing.T) {
	for _, base := range []int64{9000, 17000} {
		schedulerParity(t, paritySwitch{
			on: "cached", off: "disabled", seedBase: base,
			set: func(i int, cfg *core.Config, off bool) {
				if base == 17000 && i%6 == 5 {
					cfg.Shards = 4
				}
				cfg.DisableCompileCache = off
			},
			offTouched: func(off *core.Scheduler) string {
				if st := off.Stats; st.CompileSkips != 0 || st.ExprHits != 0 || st.ExprMisses != 0 || st.ReuseHits != 0 || st.ReuseMisses != 0 {
					return fmt.Sprintf("touched the caches (skips=%d exprHits=%d exprMisses=%d reuseHits=%d reuseMisses=%d)",
						st.CompileSkips, st.ExprHits, st.ExprMisses, st.ReuseHits, st.ReuseMisses)
				}
				return ""
			},
			counters: []string{"compile skips", "expression hits", "reuse hits"},
			fired: func(on *core.Scheduler, steady bool) ([]int64, string) {
				problem := ""
				if steady && (on.Stats.CompileSkips == 0 || on.Stats.ReuseHits == 0) {
					problem = "crafted steady-state instance skipped no compiles or replayed nothing"
				}
				return []int64{int64(on.Stats.CompileSkips), int64(on.Stats.ExprHits), int64(on.Stats.ReuseHits)}, problem
			},
		})
	}
}

// TestShardParityProperty: the sharding control plane with one shard against
// the monolithic scheduler. A single shard covers the whole cluster, so every
// forced component is byte-identical to the natural decomposition and a
// Shards=1 run must produce exactly the monolithic (Shards=0) outcomes. The
// monolithic run must never touch the shard machinery, and the sharded run
// must actually route every cycle through it.
func TestShardParityProperty(t *testing.T) {
	schedulerParity(t, paritySwitch{
		on: "1-shard", off: "monolithic", seedBase: 17000,
		set: func(_ int, cfg *core.Config, off bool) {
			cfg.Shards = 1
			if off {
				cfg.Shards = 0
			}
		},
		offTouched: func(off *core.Scheduler) string {
			if st := off.ShardStatsSnapshot(); st.Shards != 0 || st.Cycles != 0 {
				return fmt.Sprintf("touched the shard machinery (shards=%d cycles=%d)", st.Shards, st.Cycles)
			}
			return ""
		},
		counters: []string{"sharded cycles"},
		fired: func(on *core.Scheduler, _ bool) ([]int64, string) {
			st, problem := on.ShardStatsSnapshot(), ""
			if st.Shards != 1 {
				problem = fmt.Sprintf("sharded run reports %d shards, want 1", st.Shards)
			}
			return []int64{st.Cycles}, problem
		},
	})
}
