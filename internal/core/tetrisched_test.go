package core

import (
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/metrics"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

func threeNodeCluster() *cluster.Cluster {
	return cluster.NewBuilder().AddRack("r0", 3, nil).Build()
}

// TestFig4EndToEnd runs the paper's §5.1 example through the full stack —
// workload → Rayon admission → STRL generation → MILP → simulated execution —
// and requires all three deadlines met, which needs global scheduling *and*
// plan-ahead.
func TestFig4EndToEnd(t *testing.T) {
	c := threeNodeCluster()
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 2, BaseRuntime: 10, Slowdown: 1, Deadline: 10},
		{ID: 1, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 1, BaseRuntime: 20, Slowdown: 1, Deadline: 40},
		{ID: 2, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 3, BaseRuntime: 10, Slowdown: 1, Deadline: 20},
	}
	sched := New(c, Config{CyclePeriod: 10, PlanAhead: 40, Gap: 0})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched, CyclePeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Stats {
		st := &res.Stats[i]
		if !st.MetSLO() {
			t.Errorf("job %d missed its deadline: start=%d finish=%d deadline=%d dropped=%v",
				i, st.Start, st.Finish, st.Job.Deadline, st.Dropped)
		}
	}
	// The unique feasible schedule: job0@0, job2@10, job1@20.
	if res.Stats[0].Start != 0 || res.Stats[2].Start != 10 || res.Stats[1].Start != 20 {
		t.Errorf("starts = %d,%d,%d; want 0,20,10",
			res.Stats[0].Start, res.Stats[1].Start, res.Stats[2].Start)
	}
}

// TestFig4NoPlanAheadMisses shows TetriSched-NP cannot meet all three
// deadlines in the same scenario.
func TestFig4NoPlanAheadMisses(t *testing.T) {
	c := threeNodeCluster()
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 2, BaseRuntime: 10, Slowdown: 1, Deadline: 10},
		{ID: 1, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 1, BaseRuntime: 20, Slowdown: 1, Deadline: 40},
		{ID: 2, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 3, BaseRuntime: 10, Slowdown: 1, Deadline: 20},
	}
	sched := New(c, Config{CyclePeriod: 10, PlanAhead: 0, Gap: 0})
	if sched.Name() != "TetriSched-NP" {
		t.Fatalf("variant name = %q", sched.Name())
	}
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched, CyclePeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	met := 0
	for i := range res.Stats {
		if res.Stats[i].MetSLO() {
			met++
		}
	}
	if met > 2 {
		t.Errorf("NP met %d SLOs; plan-ahead should be required for all 3", met)
	}
}

// TestGPUJobPrefersGPUNodes checks heterogeneity awareness end to end.
func TestGPUJobPrefersGPUNodes(t *testing.T) {
	c := cluster.RC80(true)
	jobs := []*workload.Job{{
		ID: 0, Class: workload.SLO, Type: workload.GPU, Submit: 0, K: 4,
		BaseRuntime: 40, Slowdown: 2, Deadline: 400,
	}}
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 40})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if !st.Completed {
		t.Fatal("job did not complete")
	}
	// On an idle cluster the GPU branch must win: runtime 40 not 80.
	if st.Finish-st.Start != 40 {
		t.Errorf("ran %ds; GPU placement should take 40s", st.Finish-st.Start)
	}
}

// TestWaitsForPreferredResources: with GPUs busy briefly, an SLO GPU job
// should defer to get preferred nodes rather than taking the slow fallback,
// when the deadline allows (the plan-ahead benefit of §2.3.2).
func TestWaitsForPreferredResources(t *testing.T) {
	c := cluster.RC80(true) // 20 GPU nodes (r0, r1)
	jobs := []*workload.Job{
		// Occupies all 20 GPU nodes for 20s.
		{ID: 0, Class: workload.SLO, Type: workload.GPU, Submit: 0, K: 20, BaseRuntime: 20, Slowdown: 3, Deadline: 100},
		// Arrives while GPUs busy; prefers to wait: waiting finishes at
		// ~20+40=60 < deadline; fallback would take 120s and miss.
		{ID: 1, Class: workload.SLO, Type: workload.GPU, Submit: 4, K: 20, BaseRuntime: 40, Slowdown: 3, Deadline: 100},
	}
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 60, Gap: 0})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[1]
	if !st.MetSLO() {
		t.Fatalf("job 1 missed deadline: start=%d finish=%d dropped=%v", st.Start, st.Finish, st.Dropped)
	}
	if st.Finish-st.Start != 40 {
		t.Errorf("job 1 ran %ds; should have waited for GPU nodes (40s)", st.Finish-st.Start)
	}
	if st.Start < 20 {
		t.Errorf("job 1 started at %d while GPUs were still busy", st.Start)
	}
}

// TestFallsBackWhenDeadlineTight: same setup but the deadline is too tight
// to wait; the job must take the non-preferred fallback immediately.
func TestFallsBackWhenDeadlineTight(t *testing.T) {
	c := cluster.RC80(true)
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.GPU, Submit: 0, K: 20, BaseRuntime: 100, Slowdown: 3, Deadline: 500},
		// Waiting for GPUs (free at ~100) would finish at 100+40=140 > 60.
		// Fallback: 40×1.5=60 ≤ 60 if started immediately.
		{ID: 1, Class: workload.SLO, Type: workload.GPU, Submit: 0, K: 20, BaseRuntime: 40, Slowdown: 1.5, Deadline: 60},
	}
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 120, Gap: 0})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[1]
	if !st.MetSLO() {
		t.Fatalf("job 1 missed: start=%d finish=%d dropped=%v", st.Start, st.Finish, st.Dropped)
	}
	if st.Start != 0 {
		t.Errorf("job 1 started at %d; should fall back immediately", st.Start)
	}
}

// TestDropsHopelessSLOJobs: an SLO job whose deadline cannot be met is
// culled rather than wasting resources (§7.1).
func TestDropsHopelessSLOJobs(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{{
		ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 2,
		BaseRuntime: 100, Slowdown: 1, Deadline: 50, // impossible
	}}
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 40})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats[0].Dropped {
		t.Errorf("hopeless SLO job was not dropped")
	}
}

// TestMPIJobRackLocal checks combinatorial constraint handling end to end.
func TestMPIJobRackLocal(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{{
		ID: 0, Class: workload.SLO, Type: workload.MPI, Submit: 0, K: 8,
		BaseRuntime: 40, Slowdown: 2, Deadline: 400,
	}}
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 40})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if !st.Completed || st.Finish-st.Start != 40 {
		t.Errorf("MPI job ran %ds; rack-local placement should take 40s", st.Finish-st.Start)
	}
}

// TestSmokeGSHET runs a small heterogeneous mix through all four variants
// and the driver's invariant checks.
func TestSmokeGSHET(t *testing.T) {
	c := cluster.RC80(true)
	mix := workload.GSHET(40)
	jobs, err := workload.Generate(mix, c, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{PlanAhead: 96},
		{PlanAhead: 96, Greedy: true},
		{PlanAhead: 96, NoHet: true},
		{PlanAhead: 0},
	} {
		cfg := cfg
		t.Run(Config(cfg).Name(), func(t *testing.T) {
			js := cloneJobs(jobs)
			sched := New(c, cfg)
			res, err := sim.Run(sim.Config{Cluster: c, Jobs: js, Scheduler: sched})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stalled {
				t.Fatal("stalled")
			}
			sum := metrics.Summarize(sched.Name(), res, c.N())
			if sum.Incomplete > 0 {
				t.Errorf("%d jobs incomplete", sum.Incomplete)
			}
			t.Log(sum.String())
		})
	}
}

// TestDeterministicRuns: identical seeds and configs give identical results.
func TestDeterministicRuns(t *testing.T) {
	c := cluster.RC80(true)
	mix := workload.GSHET(25)
	run := func() []sim.JobStat {
		jobs, err := workload.Generate(mix, c, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: New(c, Config{PlanAhead: 48})})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Finish != b[i].Finish || a[i].Dropped != b[i].Dropped {
			t.Fatalf("job %d diverged between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func cloneJobs(jobs []*workload.Job) []*workload.Job {
	out := make([]*workload.Job, len(jobs))
	for i, j := range jobs {
		cp := *j
		cp.Reserved = false
		out[i] = &cp
	}
	return out
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Config{
		"TetriSched":    {PlanAhead: 96},
		"TetriSched-NG": {PlanAhead: 96, Greedy: true},
		"TetriSched-NH": {PlanAhead: 96, NoHet: true},
		"TetriSched-NP": {PlanAhead: 0},
	}
	for want, cfg := range cases {
		if got := cfg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// TestQuickRandomWorkloadsInvariants drives random small workloads through
// every variant; the driver's invariant checks (no double-booking, gang
// atomicity, no ghost launches) act as the property under test.
func TestQuickRandomWorkloadsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulations")
	}
	c := cluster.RC80(true)
	for seed := int64(0); seed < 6; seed++ {
		mix := workload.GSHET(15)
		mix.EstErr = float64(seed%5-2) / 4 // −0.5 … +0.5
		jobs, err := workload.Generate(mix, c, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{{PlanAhead: 48}, {PlanAhead: 48, Greedy: true}, {PlanAhead: 0}} {
			js := cloneJobs(jobs)
			res, err := sim.Run(sim.Config{Cluster: c, Jobs: js, Scheduler: New(c, cfg)})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfg.Name(), err)
			}
			if res.Stalled {
				t.Fatalf("seed %d %s: stalled", seed, cfg.Name())
			}
			// Accounting: every job either completed or (SLO only) dropped.
			for i := range res.Stats {
				st := &res.Stats[i]
				if !st.Completed && !st.Dropped {
					t.Fatalf("seed %d %s: job %d unaccounted", seed, cfg.Name(), i)
				}
				if st.Dropped && st.Job.Class != workload.BestEffort && st.Job.Deadline == 0 {
					t.Fatalf("seed %d %s: dropped job %d has no deadline", seed, cfg.Name(), i)
				}
			}
		}
	}
}

// TestBestEffortEventuallyRuns: BE jobs have a value floor and must never be
// starved forever, even behind a wall of SLO work.
func TestBestEffortEventuallyRuns(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 80, BaseRuntime: 100, Slowdown: 1, Deadline: 150},
		{ID: 1, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 0, K: 40, BaseRuntime: 20, Slowdown: 1},
	}
	sched := New(c, Config{PlanAhead: 96})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats[1].Completed {
		t.Fatalf("best-effort job starved: %+v", res.Stats[1])
	}
}

// TestUnderEstimateAdjustment: a job that overruns its estimate keeps its
// nodes (no preemption) and the scheduler plans around the overrun.
func TestUnderEstimateAdjustment(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{
		// Believed 50s, truly 100s, occupying the whole cluster.
		{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 80, BaseRuntime: 100, Slowdown: 1, Deadline: 400, EstErr: -0.5},
		// Needs the whole cluster after job 0; deadline allows the true
		// completion but not much slack.
		{ID: 1, Class: workload.SLO, Type: workload.Unconstrained, Submit: 10, K: 80, BaseRuntime: 50, Slowdown: 1, Deadline: 300},
	}
	sched := New(c, Config{PlanAhead: 96})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats[0].Completed || res.Stats[0].Finish != 100 {
		t.Fatalf("job 0 should run to true completion at 100: %+v", res.Stats[0])
	}
	if res.Stats[0].Preemptions != 0 {
		t.Errorf("TetriSched must not preempt")
	}
	if !res.Stats[1].MetSLO() {
		t.Errorf("job 1 missed despite replanning: %+v", res.Stats[1])
	}
}

// TestElasticJobShrinksUnderContention: a malleable job takes a narrower
// allocation (and runs longer) when the cluster is tight, and its full width
// when idle — the §4.1 space-time elasticity expressed with MAX over widths.
func TestElasticJobShrinksUnderContention(t *testing.T) {
	mk := func(busy bool) (*sim.Result, error) {
		c := cluster.NewBuilder().AddRack("r0", 8, nil).Build()
		jobs := []*workload.Job{}
		if busy {
			// A long SLO job pins 6 of 8 nodes.
			jobs = append(jobs, &workload.Job{
				ID: 0, Class: workload.SLO, Type: workload.Unconstrained, Submit: 0, K: 6,
				BaseRuntime: 500, Slowdown: 1, Deadline: 2000,
			})
		}
		elastic := &workload.Job{
			ID: len(jobs), Class: workload.BestEffort, Type: workload.Elastic, Submit: 4,
			K: 8, MinK: 2, BaseRuntime: 40, Slowdown: 1,
		}
		jobs = append(jobs, elastic)
		sched := New(c, Config{PlanAhead: 40, BEDecay: 200})
		return sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	}

	idle, err := mk(false)
	if err != nil {
		t.Fatal(err)
	}
	st := idle.Stats[0]
	if len(st.Nodes) != 8 || st.Finish-st.Start != 40 {
		t.Errorf("idle cluster: width=%d runtime=%d, want 8 nodes / 40s", len(st.Nodes), st.Finish-st.Start)
	}

	tight, err := mk(true)
	if err != nil {
		t.Fatal(err)
	}
	st = tight.Stats[1]
	if !st.Completed {
		t.Fatalf("elastic job never ran: %+v", st)
	}
	if len(st.Nodes) != 2 {
		t.Errorf("tight cluster: width=%d, want the 2-node shrink", len(st.Nodes))
	}
	if st.Finish-st.Start != 160 { // 40s × 8/2
		t.Errorf("tight cluster: runtime=%d, want 160 (work-conserving scale)", st.Finish-st.Start)
	}
	if st.Start > 40 {
		t.Errorf("elastic job waited until t=%d instead of shrinking immediately", st.Start)
	}
}

// TestAdaptsToNodeFailures: TetriSched replans around injected node
// failures — killed jobs restart elsewhere and deadlines still hold when
// capacity allows.
func TestAdaptsToNodeFailures(t *testing.T) {
	c := cluster.RC80(true)
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.GPU, Submit: 0, K: 8,
			BaseRuntime: 60, Slowdown: 2, Deadline: 600},
		{ID: 1, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 0, K: 4,
			BaseRuntime: 40, Slowdown: 1},
	}
	sched := New(c, Config{PlanAhead: 96})
	// Fail two GPU nodes mid-run; whatever is running there restarts.
	res, err := sim.Run(sim.Config{
		Cluster: c, Jobs: jobs, Scheduler: sched,
		Failures: []sim.NodeFailure{{Node: 0, At: 20, RecoverAt: 200}, {Node: 1, At: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Stats {
		st := &res.Stats[i]
		if !st.Completed {
			t.Errorf("job %d never completed after failures: %+v", i, st)
		}
	}
	if res.Stats[0].Job.Class == workload.SLO && !res.Stats[0].MetSLO() {
		t.Errorf("SLO job missed despite ample slack: %+v", res.Stats[0])
	}
}

// TestDataLocalPlacement: dynamic heterogeneity (§2.2) — a job's preferred
// nodes are wherever its input replicas live, and TetriSched places it there
// when they are free.
func TestDataLocalPlacement(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{{
		ID: 0, Class: workload.SLO, Type: workload.DataLocal, Submit: 0, K: 3,
		BaseRuntime: 40, Slowdown: 2, Deadline: 400,
		DataNodes: []int{17, 42, 63, 71},
	}}
	sched := New(c, Config{PlanAhead: 40})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if !st.Completed || st.Finish-st.Start != 40 {
		t.Fatalf("data-local job ran %ds, want 40 (local)", st.Finish-st.Start)
	}
	replicas := map[int]bool{17: true, 42: true, 63: true, 71: true}
	for _, n := range st.Nodes {
		if !replicas[n] {
			t.Errorf("node %d is not a replica holder", n)
		}
	}
}

// TestDataLocalFallsBackWhenReplicasBusy: replicas pinned by another job →
// the data-local job runs remotely at its slowdown rather than waiting past
// a tight deadline.
func TestDataLocalFallsBackWhenReplicasBusy(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{
		// Occupies all four replica holders for a long time.
		{ID: 0, Class: workload.SLO, Type: workload.DataLocal, Submit: 0, K: 4,
			BaseRuntime: 500, Slowdown: 2, Deadline: 2000, DataNodes: []int{17, 42, 63, 71}},
		// Same replicas, tight deadline: must fall back to remote reads.
		{ID: 1, Class: workload.SLO, Type: workload.DataLocal, Submit: 4, K: 3,
			BaseRuntime: 40, Slowdown: 2, Deadline: 120, DataNodes: []int{17, 42, 63, 71}},
	}
	sched := New(c, Config{PlanAhead: 96, Gap: 0})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[1]
	if !st.MetSLO() {
		t.Fatalf("job 1 missed: %+v", st)
	}
	if st.Finish-st.Start != 80 {
		t.Errorf("job 1 ran %ds, want 80 (remote, slowed)", st.Finish-st.Start)
	}
}

// TestSolverTelemetryAccumulates: the scheduler's solver counters feed the
// scalability analysis and must move.
func TestSolverTelemetryAccumulates(t *testing.T) {
	c := cluster.RC80(true)
	jobs, err := workload.Generate(workload.GSHET(10), c, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched := New(c, Config{PlanAhead: 48})
	if _, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched}); err != nil {
		t.Fatal(err)
	}
	if sched.Stats.Solves == 0 {
		t.Errorf("no solves recorded")
	}
	if sched.Stats.Nodes == 0 || sched.Stats.MaxNodes == 0 {
		t.Errorf("no branch-and-bound nodes recorded: %+v", sched.Stats)
	}
	if sched.Stats.Runtime <= 0 {
		t.Errorf("no solver runtime recorded")
	}
	if sched.Pending() != 0 || sched.Running() != 0 {
		t.Errorf("scheduler state not drained: pending=%d running=%d", sched.Pending(), sched.Running())
	}
}

// TestPriorityBreaksContention: of two identical BE jobs competing for the
// same nodes, the higher-priority one (§3.2 value scaling) runs first.
func TestPriorityBreaksContention(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 4, nil).Build()
	jobs := []*workload.Job{
		{ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 0, K: 4, BaseRuntime: 40, Slowdown: 1, Priority: 1},
		{ID: 1, Class: workload.BestEffort, Type: workload.Unconstrained, Submit: 0, K: 4, BaseRuntime: 40, Slowdown: 1, Priority: 10},
	}
	sched := New(c, Config{PlanAhead: 96, Gap: 0})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Stats[1].Start < res.Stats[0].Start) {
		t.Errorf("high-priority job started at %d, low at %d; want high first",
			res.Stats[1].Start, res.Stats[0].Start)
	}
	if !res.Stats[0].Completed || !res.Stats[1].Completed {
		t.Errorf("both jobs must complete")
	}
}

// warmStartScenario is a deferral-heavy workload: job 1 waits several cycles
// for the GPU nodes, so consecutive global solves re-propose its shifted
// plan as a warm-start seed. PlanAhead stays within MaxStartChoices slices so
// options are generated at every slice (stride 1) — a strided option grid has
// no slice-minus-one option for the seed to land on.
func warmStartScenario(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	c := cluster.RC80(true)
	jobs := []*workload.Job{
		{ID: 0, Class: workload.SLO, Type: workload.GPU, Submit: 0, K: 20, BaseRuntime: 20, Slowdown: 3, Deadline: 100},
		{ID: 1, Class: workload.SLO, Type: workload.GPU, Submit: 4, K: 20, BaseRuntime: 40, Slowdown: 3, Deadline: 120},
	}
	sched := New(c, cfg)
	if _, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched}); err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestWarmStartSeedsCounted: with the default quantum the deferral scenario
// must produce warm-started solves, visible in SolveStats.
func TestWarmStartSeedsCounted(t *testing.T) {
	sched := warmStartScenario(t, Config{CyclePeriod: 4, PlanAhead: 48, Gap: 0})
	if sched.Stats.WarmStarts == 0 {
		t.Fatalf("no warm-started solves recorded across a deferral-heavy run: %+v", sched.Stats)
	}
}

// TestPendingOrderFollowsAdmitSeq: jobs tying on (priority, Submit) order by
// the front door's weighted-fair admission sequence when one was stamped, and
// fall back to job-ID order when none was (simulator jobs). Without the
// AdmitSeq tie-break, a tenant allocating low job IDs would reclaim the queue
// positions the fair dequeue took away from it.
func TestPendingOrderFollowsAdmitSeq(t *testing.T) {
	s := New(threeNodeCluster(), Config{PlanAhead: 16})
	mk := func(id int, seq int64) *workload.Job {
		return &workload.Job{ID: id, Class: workload.BestEffort, K: 1,
			BaseRuntime: 10, Slowdown: 1, Submit: 5, AdmitSeq: seq}
	}
	// Tenant A holds IDs 1-3, tenant B IDs 100-102; fair admission
	// interleaved them B-first.
	for _, j := range []*workload.Job{mk(1, 2), mk(2, 4), mk(3, 6), mk(100, 1), mk(101, 3), mk(102, 5)} {
		s.Submit(5, j)
	}
	got := make([]int, 0, 6)
	for _, j := range s.orderedPending() {
		got = append(got, j.ID)
	}
	want := []int{100, 1, 101, 2, 102, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("admit-seq ordering broken: got %v, want %v", got, want)
		}
	}

	// Zero AdmitSeq everywhere (simulator path): ID order, unchanged policy.
	s2 := New(threeNodeCluster(), Config{PlanAhead: 16})
	for _, id := range []int{3, 1, 2} {
		s2.Submit(5, mk(id, 0))
	}
	ord := s2.orderedPending()
	if ord[0].ID != 1 || ord[1].ID != 2 || ord[2].ID != 3 {
		t.Fatalf("zero-seq jobs must keep ID order, got %v %v %v", ord[0].ID, ord[1].ID, ord[2].ID)
	}
}
