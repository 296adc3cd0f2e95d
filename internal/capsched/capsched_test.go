package capsched

import (
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/metrics"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

func TestReservedJobStartsAtPlannedTime(t *testing.T) {
	c := cluster.RC80(false)
	plan := rayon.NewPlan(c.N(), 4)
	jobs := []*workload.Job{
		// Fills the whole cluster for 40s with a reservation.
		{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 80, BaseRuntime: 40, Slowdown: 1, Deadline: 40},
		// Second reserved job must be planned after the first.
		{ID: 1, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 80, BaseRuntime: 40, Slowdown: 1, Deadline: 200},
	}
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: New(c, plan), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats[0].MetSLO() || !res.Stats[1].MetSLO() {
		t.Errorf("reserved jobs missed SLOs: %+v %+v", res.Stats[0], res.Stats[1])
	}
	if res.Stats[1].Start < 40 {
		t.Errorf("job 1 started at %d, before its planned window", res.Stats[1].Start)
	}
}

func TestPreemptsBestEffortForReservation(t *testing.T) {
	c := cluster.RC80(false)
	plan := rayon.NewPlan(c.N(), 4)
	jobs := []*workload.Job{
		// BE job occupies the whole cluster for a long time.
		{ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 0, K: 80, BaseRuntime: 400, Slowdown: 1},
		// Reserved SLO job arrives later and needs everything.
		{ID: 1, Class: workload.SLO, Type: workload.Unconstrained, Submit: 20, K: 80, BaseRuntime: 40, Slowdown: 1, Deadline: 100},
	}
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: New(c, plan), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats[1].MetSLO() {
		t.Errorf("reserved job missed SLO despite preemption: %+v", res.Stats[1])
	}
	if res.Stats[0].Preemptions == 0 {
		t.Errorf("BE job was not preempted")
	}
	if !res.Stats[0].Completed {
		t.Errorf("preempted BE job never completed")
	}
	// Restart semantics: the BE job's total latency exceeds its runtime.
	if res.Stats[0].Latency() <= 400 {
		t.Errorf("BE latency %d shows no preemption waste", res.Stats[0].Latency())
	}
}

func TestExpiredReservationTransfersToBEQueue(t *testing.T) {
	c := cluster.RC80(false)
	plan := rayon.NewPlan(c.N(), 4)
	// Under-estimated job: reservation covers 40s (est) but it truly runs
	// 400s; after expiry it becomes preemptible.
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 80, BaseRuntime: 400, Slowdown: 1, Deadline: 500, EstErr: -0.9},
		{ID: 1, Class: workload.SLO, Type: workload.Unconstrained, Submit: 100, K: 80, BaseRuntime: 40, Slowdown: 1, Deadline: 200},
	}
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: New(c, plan), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Job 1's reservation preempts job 0 once job 0's guarantee lapsed.
	if res.Stats[0].Preemptions == 0 {
		t.Errorf("under-estimated job kept its nodes after reservation expiry")
	}
	if !res.Stats[1].MetSLO() {
		t.Errorf("second reserved job missed: %+v", res.Stats[1])
	}
}

func TestDeadlineBlindnessRunsLateJobs(t *testing.T) {
	c := cluster.RC80(false)
	plan := rayon.NewPlan(c.N(), 4)
	// Impossible deadline: CS runs it anyway (wasting resources), unlike
	// TetriSched which would drop it.
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 2, BaseRuntime: 100, Slowdown: 1, Deadline: 50},
	}
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: New(c, plan), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if st.Dropped {
		t.Errorf("CS dropped a job; it is deadline-blind")
	}
	if !st.Completed {
		t.Errorf("job never ran")
	}
	if st.MetSLO() {
		t.Errorf("impossible SLO marked met")
	}
}

func TestHeterogeneityBlindPlacement(t *testing.T) {
	c := cluster.RC80(true)
	plan := rayon.NewPlan(c.N(), 4)
	// CS picks the lowest-ID free nodes with no topology awareness: the
	// second k=6 MPI job lands on nodes 6–11, straddling racks r0/r1, and
	// runs at its 2× slowdown. (TetriSched would place it rack-locally.)
	jobs := []*workload.Job{
		{ID: 0, Class: workload.BestEffort, Type: workload.MPI, Submit: 0, K: 6, BaseRuntime: 40, Slowdown: 2},
		{ID: 1, Class: workload.BestEffort, Type: workload.MPI, Submit: 0, K: 6, BaseRuntime: 40, Slowdown: 2},
	}
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: New(c, plan), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 gets nodes 0..9 (rack r0) — coincidentally local. Job 2 (k=5)
	// lands across r2's remainder… verify at least one job was slowed by
	// blind placement.
	slowed := false
	for i := range res.Stats {
		if res.Stats[i].Finish-res.Stats[i].Start > 40 {
			slowed = true
		}
	}
	if !slowed {
		t.Errorf("blind placement never produced a slowed MPI job")
	}
}

func TestSmokeGSMix(t *testing.T) {
	c := cluster.RC80(false)
	jobs, err := workload.Generate(workload.GSMIX(40), c, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := rayon.NewPlan(c.N(), 4)
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: New(c, plan), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("stalled")
	}
	sum := metrics.Summarize("Rayon/CS", res, c.N())
	if sum.Incomplete > 0 {
		t.Errorf("%d incomplete jobs", sum.Incomplete)
	}
	t.Log(sum.String())
}

func TestQueueLengths(t *testing.T) {
	c := cluster.RC80(false)
	plan := rayon.NewPlan(c.N(), 4)
	s := New(c, plan)
	// A reserved SLO job and a BE job.
	slo := &workload.Job{ID: 0, Class: workload.SLO, K: 4, BaseRuntime: 40, Deadline: 400}
	if plan.Admit(0, 0, 400, 4, 40) == nil {
		t.Fatal("admission failed")
	}
	slo.Reserved = true
	s.Submit(0, slo)
	s.Submit(0, &workload.Job{ID: 1, Class: workload.BestEffort, K: 2, BaseRuntime: 20})
	if r, b := s.QueueLengths(); r != 1 || b != 1 {
		t.Errorf("queues = (%d,%d), want (1,1)", r, b)
	}
}
