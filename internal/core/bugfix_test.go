package core

import (
	"slices"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// TestTruncatedJobsLoseStalePlanChoice pins the MaxBatch/lastJob interaction:
// a job deferred in one cycle and truncated out of the batch in the next must
// not keep its plan choice — the shift-by-one-slice warm-start assumption
// only spans a single cycle, so a surviving entry would later be re-proposed
// at a wrong slice.
func TestTruncatedJobsLoseStalePlanChoice(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 4, nil).Build()
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 32, Gap: 0, MaxBatch: 1})
	// A believed-running blocker keeps all nodes busy until t=8, so the
	// pending job's only feasible start is a deferred slice.
	blocker := &workload.Job{ID: 99, Class: workload.BestEffort, Type: workload.Unconstrained, K: 4, BaseRuntime: 100, Slowdown: 1}
	sched.running[99] = &runInfo{job: blocker, nodes: []int{0, 1, 2, 3}, estEnd: 8}

	idle := &workload.Job{ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 0, K: 4, BaseRuntime: 8, Slowdown: 1}
	sched.Submit(0, idle)
	sched.Cycle(0, bitset.New(4))
	if _, ok := sched.lastJob[idle.ID]; !ok {
		t.Fatal("setup: cycle 0 should have deferred the job and recorded a plan choice")
	}

	// A higher-priority arrival fills the MaxBatch=1 batch at cycle 1,
	// truncating the deferred job out.
	urgent := &workload.Job{ID: 1, Class: workload.SLO, Reserved: true, Type: workload.Unconstrained, Submit: 4, K: 4, BaseRuntime: 8, Slowdown: 1, Deadline: 100}
	sched.Submit(4, urgent)
	sched.Cycle(4, bitset.New(4))
	if pc, ok := sched.lastJob[idle.ID]; ok {
		t.Errorf("truncated job kept stale plan choice %+v; it must be cleared", pc)
	}
}

// TestEmptyComponentIsSolvedNotFallenBack pins how a component with nothing
// to offer ends: the scheduler believes a stale best-effort job holds the
// whole cluster far into the future, so every leaf of the SLO job is culled
// and its component is a model without variables. That model's optimum is the
// empty point, so the component counts as solved and the cycle launches
// nothing. A solver that answers it with nil Values would file the component
// as failed, and the greedy fallback would launch the job on the nodes the
// cycle sees free, against the scheduler's own belief.
func TestEmptyComponentIsSolvedNotFallenBack(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 4, nil).Build()
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0})
	stale := &workload.Job{ID: 50, Class: workload.BestEffort, Type: workload.Unconstrained, K: 4, BaseRuntime: 1000, Slowdown: 1}
	sched.running[50] = &runInfo{job: stale, nodes: []int{0, 1, 2, 3}, estEnd: 1000}

	// Deadline 7 with runtime 4 leaves start slice 0 as the only option.
	job := &workload.Job{ID: 1, Class: workload.SLO, Reserved: true, Type: workload.Unconstrained, Submit: 0, K: 2, BaseRuntime: 4, Slowdown: 1, Deadline: 7}
	sched.Submit(0, job)
	res := sched.Cycle(0, c.All())
	if len(res.Decisions) != 0 {
		t.Fatalf("decisions = %+v, want none: the empty component is solved, and the fallback must not run", res.Decisions)
	}
}

// TestWarmStartsCountPerSubSolve pins the warm-start telemetry of a decomposed
// solve: WarmStarts counts sub-solves that actually received a non-nil seed —
// two seeded components in one cycle count two, and a cycle with no seed at
// all counts zero.
func TestWarmStartsCountPerSubSolve(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 8, nil).Build()
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 32, Gap: 0})
	// Each half of the cluster is busy until t=12, so both data-local jobs
	// defer at cycle 0 and re-propose their shifted choices at cycle 1. Their
	// whole-cluster fallbacks run 2× and blow the deadline, so the batch
	// splits into one component per job and the cycle-1 seed must be counted
	// once per component.
	for i, lo := range []int{0, 4} {
		blocker := &workload.Job{ID: 100 + i, Class: workload.BestEffort, Type: workload.Unconstrained, K: 4, BaseRuntime: 12, Slowdown: 1}
		sched.running[blocker.ID] = &runInfo{job: blocker, nodes: []int{lo, lo + 1, lo + 2, lo + 3}, estEnd: 12}
	}
	for i, lo := range []int{0, 4} {
		sched.Submit(0, &workload.Job{
			ID: i, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: 0,
			K: 2, BaseRuntime: 40, Slowdown: 2, Deadline: 60, DataNodes: []int{lo, lo + 1, lo + 2, lo + 3},
		})
	}
	sched.Cycle(0, bitset.New(8))
	if sched.Stats.WarmStarts != 0 {
		t.Fatalf("cycle 0 has no previous plan to seed from, got WarmStarts = %d", sched.Stats.WarmStarts)
	}
	if len(sched.lastJob) != 2 {
		t.Fatalf("setup: cycle 0 should defer both jobs, lastJob = %v", sched.lastJob)
	}
	sched.Cycle(4, bitset.New(8))
	if sched.Stats.Components < 2 {
		t.Fatalf("setup: cycle 1 did not decompose (components = %d)", sched.Stats.Components)
	}
	if sched.Stats.WarmStarts != 2 {
		t.Errorf("WarmStarts = %d, want 2: each seeded component sub-solve counts once", sched.Stats.WarmStarts)
	}
}

// TestFailureRestartKeepsFIFOPosition pins orderedPending's FIFO-by-arrival
// guarantee across requeues: a failure-killed job re-enters the pending queue
// at the tail, but must still be scheduled before jobs that arrived after it.
// The greedy (per-job, in-order) variant makes queue order decisive.
func TestFailureRestartKeepsFIFOPosition(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 1, nil).Build()
	jobs := []*workload.Job{
		{ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 0, K: 1, BaseRuntime: 20, Slowdown: 1},
		{ID: 1, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 8, K: 1, BaseRuntime: 20, Slowdown: 1},
	}
	sched := New(c, Config{Greedy: true, CyclePeriod: 4, PlanAhead: 16, Gap: 0})
	res, err := sim.Run(sim.Config{
		Cluster: c, Jobs: jobs, Scheduler: sched,
		// Job 0 is killed mid-run and re-queued behind job 1; the node
		// recovers between cycles.
		Failures: []sim.NodeFailure{{Node: 0, At: 10, RecoverAt: 14}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].FailureKills != 1 {
		t.Fatalf("setup: job 0 FailureKills = %d, want 1", res.Stats[0].FailureKills)
	}
	if !res.Stats[0].Completed || !res.Stats[1].Completed {
		t.Fatalf("both jobs should complete: %+v", res.Stats)
	}
	// FIFO within the best-effort class: job 0 (arrived t=0) restarts before
	// job 1 (arrived t=8) runs, despite sitting behind it in the raw queue.
	if res.Stats[0].Start >= res.Stats[1].Start {
		t.Errorf("restarted job 0 started at %d, after the later arrival's %d; FIFO-by-arrival broken",
			res.Stats[0].Start, res.Stats[1].Start)
	}
}

// TestWithheldNodesAreNotIdle: a node the caller leaves out of the free set
// runs something the scheduler does not know of, so it is not planned on now.
// Twelve nodes, ten offered, nothing known to run: a 12-wide SLO job queued
// ahead cannot start before the two withheld nodes come back, and the
// one-slice jobs behind it, which fit on the ten in the meantime, launch.
// Were the withheld nodes idle by belief, the wide job's start-now grant would
// win the solve and fail its commit, and nothing would launch.
func TestWithheldNodesAreNotIdle(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 12, nil).Build()
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0})
	sched.Submit(0, &workload.Job{ID: 1, Class: workload.SLO, Reserved: true, Type: workload.Unconstrained,
		K: 12, BaseRuntime: 8, Slowdown: 1, Deadline: 40})
	for id := 2; id <= 3; id++ {
		sched.Submit(0, &workload.Job{ID: id, Class: workload.BestEffort, Type: workload.Unconstrained,
			K: 4, BaseRuntime: 4, Slowdown: 1})
	}
	free := bitset.FromIndices(12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	var launched []int
	for _, d := range sched.Cycle(0, free).Decisions {
		launched = append(launched, d.Job.ID)
		for _, n := range d.Nodes {
			if !free.Contains(n) {
				t.Errorf("job %d launched on node %d, which is not free", d.Job.ID, n)
			}
		}
	}
	slices.Sort(launched)
	if !slices.Equal(launched, []int{2, 3}) {
		t.Errorf("launched jobs %v, want 2 and 3", launched)
	}
}

// TestWithheldNodesFreeTheQueue: a 12-wide SLO job waits for all twelve nodes
// while the caller offers ten, ahead of two 4-wide BE jobs that fit in those
// ten. A withheld node's release slice doubles each cycle it stays withheld,
// until it lies past the window; then the SLO job no longer holds the BE jobs
// back, and both launch on offered nodes, whatever their runtime.
func TestWithheldNodesFreeTheQueue(t *testing.T) {
	for _, runtime := range []int64{4, 8, 12} { // 1, 2 and 3 slices
		c := cluster.NewBuilder().AddRack("r0", 12, nil).Build()
		sched := New(c, Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0})
		sched.Submit(0, &workload.Job{ID: 1, Class: workload.SLO, Reserved: true, Type: workload.Unconstrained,
			K: 12, BaseRuntime: 8, Slowdown: 1, Deadline: 400})
		for id := 2; id <= 3; id++ {
			sched.Submit(0, &workload.Job{ID: id, Class: workload.BestEffort, Type: workload.Unconstrained,
				K: 4, BaseRuntime: runtime, Slowdown: 1})
		}
		free := bitset.FromIndices(12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
		var launched []int
		for cycle := int64(0); cycle < 20 && len(launched) < 2; cycle++ {
			for _, d := range sched.Cycle(4*cycle, free).Decisions {
				launched = append(launched, d.Job.ID)
				for _, n := range d.Nodes {
					if !free.Contains(n) {
						t.Fatalf("runtime %d: job %d launched on node %d, which is not free", runtime, d.Job.ID, n)
					}
					free.Remove(n)
				}
			}
		}
		slices.Sort(launched)
		if !slices.Equal(launched, []int{2, 3}) {
			t.Errorf("runtime %d: launched jobs %v in 20 cycles, want 2 and 3", runtime, launched)
		}
	}
}
