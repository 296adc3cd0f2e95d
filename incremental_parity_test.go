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

// parityInstance is one randomized multi-cycle scenario for the incremental
// parity property. Jobs are rebuilt per run from the same sub-seed because the
// simulation driver mutates them (Reserved is stamped at submit time).
type parityInstance struct {
	c        *cluster.Cluster
	mkJobs   func() []*workload.Job
	failures []sim.NodeFailure
	cfg      core.Config
	// steady marks the crafted blocked-cluster instances that are guaranteed
	// to produce reuse hits (an overrunning blocker pins release slices while
	// data-local jobs defer in place).
	steady bool
}

// randomParityInstance draws a cluster, workload, and configuration: mixed job
// classes and placement types, occasional estimate error (negative values
// create natural overruns), occasional node failures, preemption, and small
// MaxBatch (exercising truncation). Every 4th instance is the crafted
// steady-state scenario instead, so the on-run reliably exercises replay.
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
			CyclePeriod:      4,
			PlanAhead:        int64(16 + 8*r.Intn(3)),
			EnablePreemption: idx%3 == 0,
			// Parity is a property of the search, not of the clock, and a
			// truncated solve diverges from an untruncated one: instance 74 has
			// a 435-node solve (0.1 s) that the race detector stretches to the
			// default 2 s limit now that the rounding runs at every node.
			SolverTimeLimit: time.Minute,
		},
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

// TestIncrementalParityProperty is the policy-invariance property of the
// incremental scheduling layer: across seeded multi-cycle simulations —
// arrivals, completions, drops, overruns, node failures, preemptions — a run
// with cross-cycle reuse enabled must produce byte-identical per-job outcomes
// to the same run with DisableIncremental. The stats assertions keep both
// sides honest: disabled runs must never touch the reuse machinery, and the
// enabled runs must actually replay (every crafted steady instance, and in
// aggregate).
func TestIncrementalParityProperty(t *testing.T) {
	const instances = 220
	totalHits := 0
	for i := 0; i < instances; i++ {
		seed := int64(9000 + i)
		inst := randomParityInstance(i, seed)
		run := func(disable bool) (*sim.Result, *core.Scheduler) {
			cfg := inst.cfg
			cfg.DisableIncremental = disable
			sched := core.New(inst.c, cfg)
			res, err := sim.Run(sim.Config{
				Cluster: inst.c, Jobs: inst.mkJobs(), Scheduler: sched, Failures: inst.failures,
			})
			if err != nil {
				t.Fatalf("seed %d (disable=%v): %v", seed, disable, err)
			}
			return res, sched
		}
		on, onSched := run(false)
		off, offSched := run(true)

		if !reflect.DeepEqual(on.Stats, off.Stats) {
			for j := range on.Stats {
				if !reflect.DeepEqual(on.Stats[j], off.Stats[j]) {
					t.Errorf("seed %d: job %d diverged:\n  incremental: %+v\n  disabled:    %+v",
						seed, j, on.Stats[j], off.Stats[j])
				}
			}
		}
		if on.Makespan != off.Makespan || on.BusyNodeSeconds != off.BusyNodeSeconds || on.Stalled != off.Stalled {
			t.Errorf("seed %d: run shape diverged: makespan %d vs %d, busy %d vs %d, stalled %v vs %v",
				seed, on.Makespan, off.Makespan, on.BusyNodeSeconds, off.BusyNodeSeconds, on.Stalled, off.Stalled)
		}
		if offSched.Stats.ReuseHits != 0 || offSched.Stats.ReuseMisses != 0 {
			t.Errorf("seed %d: DisableIncremental run touched the reuse machinery (hits=%d misses=%d)",
				seed, offSched.Stats.ReuseHits, offSched.Stats.ReuseMisses)
		}
		if inst.steady && onSched.Stats.ReuseHits == 0 {
			t.Errorf("seed %d: crafted steady-state instance produced no reuse hits", seed)
		}
		totalHits += onSched.Stats.ReuseHits
	}
	if totalHits == 0 {
		t.Error("no reuse hits across any instance; the parity property never exercised replay")
	}
	t.Logf("aggregate reuse hits across %d instances: %d", instances, totalHits)
}
