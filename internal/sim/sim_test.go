package sim

import (
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/rayon"
	"tetrisched/internal/workload"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 2) })
	e.At(5, func() { got = append(got, 1) })
	e.At(10, func() { got = append(got, 3) }) // same time: scheduling order
	e.At(20, func() { got = append(got, 4) })
	for e.Step() {
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("final time = %d", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() {
		e.After(2, func() { fired++ })
	})
	for e.Step() {
	}
	if fired != 1 || e.Now() != 3 {
		t.Errorf("fired=%d now=%d", fired, e.Now())
	}
	// Scheduling in the past clamps to now.
	e.At(1, func() { fired++ })
	for e.Step() {
	}
	if fired != 2 || e.Now() != 3 {
		t.Errorf("past event: fired=%d now=%d", fired, e.Now())
	}
}

// fifoSched is a trivial scheduler used to exercise the driver: strict FIFO,
// arbitrary nodes.
type fifoSched struct {
	queue []*workload.Job
}

func (f *fifoSched) Name() string                           { return "fifo" }
func (f *fifoSched) Submit(now int64, j *workload.Job)      { f.queue = append(f.queue, j) }
func (f *fifoSched) JobFinished(now int64, j *workload.Job) {}
func (f *fifoSched) Cycle(now int64, free *bitset.Set) CycleResult {
	var res CycleResult
	for len(f.queue) > 0 && free.Count() >= f.queue[0].K {
		j := f.queue[0]
		nodes := make([]int, 0, j.K)
		free.ForEach(func(n int) bool {
			nodes = append(nodes, n)
			return len(nodes) < j.K
		})
		for _, n := range nodes {
			free.Remove(n)
		}
		res.Decisions = append(res.Decisions, Decision{Job: j, Nodes: nodes})
		f.queue = f.queue[1:]
	}
	return res
}

func smallJobs(n int) []*workload.Job {
	jobs := make([]*workload.Job, n)
	for i := range jobs {
		jobs[i] = &workload.Job{
			ID: i, Class: workload.BestEffort, Type: workload.Unconstrained,
			Submit: int64(i * 2), K: 2, BaseRuntime: 10, Slowdown: 1,
		}
	}
	return jobs
}

func TestDriverRunsToCompletion(t *testing.T) {
	c := cluster.RC80(false)
	res, err := Run(Config{Cluster: c, Jobs: smallJobs(20), Scheduler: &fifoSched{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("run stalled")
	}
	for i, st := range res.Stats {
		if !st.Completed {
			t.Fatalf("job %d not completed", i)
		}
		if st.Finish-st.Start != 10 {
			t.Errorf("job %d ran %d s, want 10", i, st.Finish-st.Start)
		}
	}
	if res.BusyNodeSeconds != 20*2*10 {
		t.Errorf("busy node-seconds = %d, want 400", res.BusyNodeSeconds)
	}
	if res.Utilization(c.N()) <= 0 {
		t.Errorf("utilization = %v", res.Utilization(c.N()))
	}
}

// badSched violates driver invariants on demand.
type badSched struct {
	mode string
	job  *workload.Job
}

func (b *badSched) Name() string                           { return "bad" }
func (b *badSched) Submit(now int64, j *workload.Job)      { b.job = j }
func (b *badSched) JobFinished(now int64, j *workload.Job) {}
func (b *badSched) Cycle(now int64, free *bitset.Set) CycleResult {
	if b.job == nil {
		return CycleResult{}
	}
	j := b.job
	b.job = nil
	switch b.mode {
	case "doublebook":
		return CycleResult{Decisions: []Decision{{Job: j, Nodes: []int{1, 1}}}}
	case "wronggang":
		return CycleResult{Decisions: []Decision{{Job: j, Nodes: []int{1}}}}
	case "badnode":
		return CycleResult{Decisions: []Decision{{Job: j, Nodes: []int{-1, 5}}}}
	case "preemptghost":
		return CycleResult{Preempted: []*workload.Job{j}}
	}
	return CycleResult{}
}

func TestDriverInvariantViolations(t *testing.T) {
	for _, mode := range []string{"doublebook", "wronggang", "badnode", "preemptghost"} {
		c := cluster.RC80(false)
		jobs := smallJobs(1)
		_, err := Run(Config{Cluster: c, Jobs: jobs, Scheduler: &badSched{mode: mode}})
		if err == nil {
			t.Errorf("mode %q: driver accepted invalid scheduler behavior", mode)
		}
	}
}

// dropSched drops everything.
type dropSched struct{ queue []*workload.Job }

func (d *dropSched) Name() string                           { return "drop" }
func (d *dropSched) Submit(now int64, j *workload.Job)      { d.queue = append(d.queue, j) }
func (d *dropSched) JobFinished(now int64, j *workload.Job) {}
func (d *dropSched) Cycle(now int64, free *bitset.Set) CycleResult {
	res := CycleResult{Dropped: d.queue}
	d.queue = nil
	return res
}

// TestDriverDrops: every job is dropped, and a dropped SLO job's reservation
// goes back to the plan.
func TestDriverDrops(t *testing.T) {
	c := cluster.RC80(false)
	jobs := smallJobs(5)
	for _, j := range jobs {
		j.Class, j.Deadline = workload.SLO, j.Submit+100
	}
	plan := rayon.NewPlan(c.N(), 4)
	res, err := Run(Config{Cluster: c, Jobs: jobs, Scheduler: &dropSched{}, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Stats {
		if !st.Dropped || st.Completed || !st.Job.Reserved {
			t.Errorf("job %d: dropped=%v completed=%v reserved=%v", i, st.Dropped, st.Completed, st.Job.Reserved)
		}
		if r := plan.Lookup(i); r != nil {
			t.Errorf("job %d: dropped at %d but still holds %+v", i, st.Finish, *r)
		}
	}
	if n := plan.MaxReserved(res.Makespan, res.Makespan+100); n != 0 {
		t.Errorf("the plan reserves %d nodes after the last drop", n)
	}
}

// idleSched never schedules: the driver must stall out, not hang.
type idleSched struct{}

func (idleSched) Name() string                                  { return "idle" }
func (idleSched) Submit(now int64, j *workload.Job)             {}
func (idleSched) JobFinished(now int64, j *workload.Job)        {}
func (idleSched) Cycle(now int64, free *bitset.Set) CycleResult { return CycleResult{} }

func TestDriverStallsOut(t *testing.T) {
	c := cluster.RC80(false)
	res, err := Run(Config{Cluster: c, Jobs: smallJobs(2), Scheduler: idleSched{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("expected stall")
	}
}

// preemptSched starts a job then preempts it once and restarts it.
type preemptSched struct {
	job       *workload.Job
	started   bool
	preempted bool
	relaunch  bool
}

func (p *preemptSched) Name() string                           { return "preempt" }
func (p *preemptSched) Submit(now int64, j *workload.Job)      { p.job = j }
func (p *preemptSched) JobFinished(now int64, j *workload.Job) {}
func (p *preemptSched) Cycle(now int64, free *bitset.Set) CycleResult {
	switch {
	case p.job == nil:
		return CycleResult{}
	case !p.started:
		p.started = true
		return CycleResult{Decisions: []Decision{{Job: p.job, Nodes: []int{0, 1}}}}
	case !p.preempted:
		p.preempted = true
		p.relaunch = true
		return CycleResult{Preempted: []*workload.Job{p.job}}
	case p.relaunch:
		p.relaunch = false
		return CycleResult{Decisions: []Decision{{Job: p.job, Nodes: []int{2, 3}}}}
	}
	return CycleResult{}
}

func TestDriverPreemptionRestartsJob(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{{
		ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained,
		Submit: 0, K: 2, BaseRuntime: 20, Slowdown: 1,
	}}
	res, err := Run(Config{Cluster: c, Jobs: jobs, Scheduler: &preemptSched{}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if !st.Completed {
		t.Fatal("job never completed after preemption")
	}
	if st.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", st.Preemptions)
	}
	// Preempted at t=4 (second cycle), relaunched at t=8, so the job loses
	// its first 4 seconds of progress and finishes at 8+20=28.
	if st.Finish != 28 {
		t.Errorf("finish = %d, want 28 (restart semantics)", st.Finish)
	}
}

func TestJobStatHelpers(t *testing.T) {
	j := &workload.Job{Class: workload.SLO, Submit: 10, Deadline: 100}
	st := JobStat{Job: j, Completed: true, Start: 20, Finish: 90}
	if !st.MetSLO() {
		t.Errorf("on-time SLO job not counted")
	}
	if st.Latency() != 80 {
		t.Errorf("latency = %d", st.Latency())
	}
	st.Finish = 110
	if st.MetSLO() {
		t.Errorf("late SLO job counted as met")
	}
	be := JobStat{Job: &workload.Job{Class: workload.BestEffort}, Completed: true}
	if be.MetSLO() {
		t.Errorf("BE job counted as SLO")
	}
}

func TestNodeFailureKillsAndRestarts(t *testing.T) {
	c := cluster.RC80(false)
	jobs := []*workload.Job{{
		ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained,
		Submit: 0, K: 2, BaseRuntime: 100, Slowdown: 1,
	}}
	// fifoSched places on the lowest free node IDs (0,1); node 1 fails at t=20.
	res, err := Run(Config{
		Cluster: c, Jobs: jobs, Scheduler: &fifoSched{},
		Failures: []NodeFailure{{Node: 1, At: 20, RecoverAt: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if st.FailureKills != 1 {
		t.Fatalf("failure kills = %d, want 1", st.FailureKills)
	}
	if !st.Completed {
		t.Fatal("job never completed after failure restart")
	}
	// Restarted from scratch: total latency > 100s.
	if st.Latency() <= 100 {
		t.Errorf("latency %d shows no restart cost", st.Latency())
	}
	// The restart must avoid the down node: at restart time (t=20, cycle 24)
	// node 1 is down, so the job runs on nodes 0 and 2.
	for _, n := range st.Nodes {
		if n == 1 && st.Start < 40 {
			t.Errorf("restarted job placed on failed node 1 at t=%d", st.Start)
		}
	}
}

func TestNodeFailureShrinksCapacity(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 2, nil).Build()
	jobs := []*workload.Job{{
		ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained,
		Submit: 10, K: 2, BaseRuntime: 10, Slowdown: 1,
	}}
	// Node 1 is down for [0, 60): the k=2 job cannot start until recovery.
	res, err := Run(Config{
		Cluster: c, Jobs: jobs, Scheduler: &fifoSched{},
		Failures: []NodeFailure{{Node: 1, At: 0, RecoverAt: 60}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if !st.Completed || st.Start < 60 {
		t.Errorf("job should wait for recovery: start=%d completed=%v", st.Start, st.Completed)
	}
}

func TestPermanentFailure(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 3, nil).Build()
	jobs := []*workload.Job{{
		ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained,
		Submit: 0, K: 2, BaseRuntime: 10, Slowdown: 1,
	}}
	res, err := Run(Config{
		Cluster: c, Jobs: jobs, Scheduler: &fifoSched{},
		Failures: []NodeFailure{{Node: 2, At: 0}}, // never recovers
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats[0].Completed {
		t.Errorf("job should still fit on the 2 surviving nodes")
	}
	for _, n := range res.Stats[0].Nodes {
		if n == 2 {
			t.Errorf("job placed on permanently failed node")
		}
	}
}

func TestFailureUnknownNode(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 2, nil).Build()
	_, err := Run(Config{
		Cluster: c, Jobs: smallJobs(1), Scheduler: &fifoSched{},
		Failures: []NodeFailure{{Node: 99, At: 0}},
	})
	if err == nil {
		t.Errorf("failure on unknown node accepted")
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.At(int64(i%1000), func() {})
		if i%1000 == 999 {
			for e.Step() {
			}
		}
	}
}
