package sim

import (
	"fmt"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/rayon"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// Decision launches a pending job on the given nodes, all of which must be
// free. The gang occupies the nodes until the job's (placement-dependent)
// true runtime elapses.
type Decision struct {
	Job   *workload.Job
	Nodes []int
}

// CycleResult is everything a scheduler decides in one cycle.
type CycleResult struct {
	// Preempted running jobs are killed and lose all progress; they must be
	// re-queued by the scheduler itself. Applied before Decisions, so
	// Decisions may reuse the freed nodes.
	Preempted []*workload.Job
	// Decisions launch pending jobs now.
	Decisions []Decision
	// Dropped abandons pending jobs (TetriSched culls SLO jobs that can no
	// longer produce value); they count as SLO misses.
	Dropped []*workload.Job
	// SolverLatency is the wall-clock time spent inside the MILP solver this
	// cycle (zero for schedulers without one). Collected for Fig 12.
	SolverLatency time.Duration
}

// Scheduler is the pluggable policy under test: TetriSched, its ablations,
// or the Rayon/CapacityScheduler baseline.
type Scheduler interface {
	Name() string
	// Submit notifies of a job arrival (after admission control ran; the
	// job's Reserved flag is set).
	Submit(now int64, j *workload.Job)
	// JobFinished notifies that a running job completed and its nodes are
	// free again.
	JobFinished(now int64, j *workload.Job)
	// Cycle runs one scheduling cycle. free is the ground-truth set of idle
	// nodes; the scheduler must only place jobs on free nodes.
	Cycle(now int64, free *bitset.Set) CycleResult
}

// NodeFailure injects a node outage: the node goes down at At and (if
// RecoverAt > At) returns at RecoverAt. A job running on the node is killed
// with restart semantics and re-submitted to the scheduler.
type NodeFailure struct {
	Node      int
	At        int64
	RecoverAt int64 // 0 = permanent
}

// DefaultCyclePeriod is the paper's scheduling cycle in seconds, the period
// of a Config, a core.Config or a daemon that names none.
const DefaultCyclePeriod = 4

// Config describes one simulation run.
type Config struct {
	Cluster   *cluster.Cluster
	Jobs      []*workload.Job
	Scheduler Scheduler
	Plan      *rayon.Plan
	// CyclePeriod is the scheduler invocation period in seconds (paper: 4s).
	CyclePeriod int64
	// MaxIdleCycles stalls out a run when nothing is running, pending work
	// exists, and the scheduler makes no progress (safety net; default 2500).
	MaxIdleCycles int
	// Failures injects node outages (failure testing of adaptive
	// re-planning). The scheduler observes them only through the shrinking
	// free set and the re-submission of killed jobs.
	Failures []NodeFailure
	// Tracer, when non-nil, records driver-level events — Rayon
	// admission verdicts, job lifecycle, node failures, per-cycle driver
	// spans — alongside whatever the scheduler itself traces (see
	// internal/trace and docs/OBSERVABILITY.md).
	Tracer *trace.Tracer
}

// JobStat records the fate of one job.
type JobStat struct {
	Job         *workload.Job
	Submitted   bool
	Started     bool
	Completed   bool
	Dropped     bool
	Start       int64
	Finish      int64
	Preemptions int
	// FailureKills counts restarts caused by node failures.
	FailureKills int
	// Nodes holds the job's final concrete placement (set at launch).
	Nodes []int

	genCounter int // incarnation counter to invalidate stale completions
}

// MetSLO reports whether an SLO job finished by its deadline.
func (s *JobStat) MetSLO() bool {
	return s.Job.Class == workload.SLO && s.Completed && s.Finish <= s.Job.Deadline
}

// Latency returns completion latency (finish − submit) for completed jobs.
func (s *JobStat) Latency() int64 { return s.Finish - s.Job.Submit }

// CycleStat records per-cycle latency for Fig 12.
type CycleStat struct {
	At     int64
	Wall   time.Duration
	Solver time.Duration
}

// Result is the outcome of a simulation run.
type Result struct {
	Stats    []JobStat // indexed by job ID
	Cycles   []CycleStat
	Makespan int64
	// BusyNodeSeconds accumulates ground-truth occupancy for utilization.
	BusyNodeSeconds int64
	Stalled         bool
}

// Utilization returns busy node-seconds over cluster capacity × makespan.
func (r *Result) Utilization(clusterSize int) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.BusyNodeSeconds) / float64(clusterSize) / float64(r.Makespan)
}

// Run executes the simulation to completion: every job either completes or
// is dropped. It returns an error if the scheduler violates an invariant
// (double-booking a node, launching a non-pending job, wrong gang size).
func Run(cfg Config) (*Result, error) {
	if cfg.CyclePeriod <= 0 {
		cfg.CyclePeriod = DefaultCyclePeriod
	}
	if cfg.MaxIdleCycles <= 0 {
		cfg.MaxIdleCycles = 2500
	}
	if cfg.Plan == nil {
		cfg.Plan = rayon.NewPlan(cfg.Cluster.N(), cfg.CyclePeriod)
	}
	eng := NewEngine()
	tr := cfg.Tracer
	res := &Result{Stats: make([]JobStat, len(cfg.Jobs))}
	free := cfg.Cluster.All()
	running := make(map[int][]int) // job ID -> nodes
	remaining := len(cfg.Jobs)
	submittedAll := 0
	idleCycles := 0
	var firstErr error
	fail := func(format string, args ...interface{}) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}

	for i, j := range cfg.Jobs {
		if j.ID != i {
			return nil, fmt.Errorf("sim: job %d has ID %d; IDs must be dense", i, j.ID)
		}
		res.Stats[i].Job = j
		job := j
		eng.At(j.Submit, func() {
			tr.SetVirtualTime(eng.Now())
			if job.Class == workload.SLO {
				r := cfg.Plan.Admit(job.ID, eng.Now(), job.Deadline, job.K, job.EstRuntime(true))
				job.Reserved = r != nil
				verdict := "reject"
				if job.Reserved {
					verdict = "admit"
				}
				tr.Instant("admission", verdict, trace.I("job", int64(job.ID)),
					trace.I("k", int64(job.K)), trace.I("deadline", job.Deadline))
			}
			res.Stats[job.ID].Submitted = true
			submittedAll++
			tr.Instant("job", "submit", trace.I("job", int64(job.ID)),
				trace.S("class", job.Class.String()), trace.I("k", int64(job.K)))
			cfg.Scheduler.Submit(eng.Now(), job)
		})
	}

	// Failure injection: outages kill the occupying job (restart semantics)
	// and shrink the free set; the scheduler re-learns the job via Submit.
	down := bitset.New(cfg.Cluster.N())
	for _, f := range cfg.Failures {
		f := f
		if f.Node < 0 || f.Node >= cfg.Cluster.N() {
			return nil, fmt.Errorf("sim: failure on unknown node %d", f.Node)
		}
		eng.At(f.At, func() {
			if down.Contains(f.Node) {
				return
			}
			down.Add(f.Node)
			tr.SetVirtualTime(eng.Now())
			tr.Instant("failure", "node-down", trace.I("node", int64(f.Node)))
			if free.Contains(f.Node) {
				free.Remove(f.Node)
				return
			}
			for id, nodes := range running {
				hit := false
				for _, n := range nodes {
					if n == f.Node {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				job := res.Stats[id].Job
				delete(running, id)
				for _, n := range nodes {
					if n != f.Node {
						free.Add(n)
					}
				}
				st := &res.Stats[id]
				st.FailureKills++
				tr.Instant("failure", "kill", trace.I("job", int64(id)),
					trace.I("node", int64(f.Node)), trace.I("lost", eng.Now()-st.Start))
				res.BusyNodeSeconds += int64(len(nodes)) * (eng.Now() - st.Start)
				st.Started = false
				st.genCounter++
				cfg.Scheduler.JobFinished(eng.Now(), job) // "no longer running"
				cfg.Scheduler.Submit(eng.Now(), job)      // re-queue for restart
				break
			}
		})
		if f.RecoverAt > f.At {
			eng.At(f.RecoverAt, func() {
				if down.Contains(f.Node) {
					down.Remove(f.Node)
					free.Add(f.Node)
					tr.SetVirtualTime(eng.Now())
					tr.Instant("failure", "node-up", trace.I("node", int64(f.Node)))
				}
			})
		}
	}

	finish := func(job *workload.Job) {
		now := eng.Now()
		nodes := running[job.ID]
		delete(running, job.ID)
		for _, n := range nodes {
			free.Add(n)
		}
		st := &res.Stats[job.ID]
		st.Completed = true
		st.Finish = now
		tr.SetVirtualTime(now)
		tr.Instant("job", "finish", trace.I("job", int64(job.ID)),
			trace.I("latency", now-job.Submit), trace.B("met_slo", st.MetSLO()))
		res.BusyNodeSeconds += int64(len(nodes)) * (now - st.Start)
		if r := cfg.Plan.Lookup(job.ID); r != nil {
			cfg.Plan.Release(r, now)
		}
		remaining--
		if now > res.Makespan {
			res.Makespan = now
		}
		cfg.Scheduler.JobFinished(now, job)
	}

	var cycle func()
	cycle = func() {
		if firstErr != nil || res.Stalled || remaining == 0 {
			return
		}
		now := eng.Now()
		tr.SetVirtualTime(now)
		driverSpan := tr.Begin("driver", "cycle")
		t0 := time.Now()
		cr := cfg.Scheduler.Cycle(now, free.Clone())
		wall := time.Since(t0)
		res.Cycles = append(res.Cycles, CycleStat{At: now, Wall: wall, Solver: cr.SolverLatency})
		driverSpan.End(trace.I("decisions", int64(len(cr.Decisions))),
			trace.I("preempted", int64(len(cr.Preempted))),
			trace.I("dropped", int64(len(cr.Dropped))),
			trace.I("running", int64(len(running))),
			trace.F("solver_ms", float64(cr.SolverLatency.Microseconds())/1000))
		tr.Counter("driver", "cluster", trace.I("free_nodes", int64(free.Count())),
			trace.I("running_jobs", int64(len(running))))

		for _, job := range cr.Preempted {
			nodes, ok := running[job.ID]
			if !ok {
				fail("sim: scheduler preempted non-running job %d", job.ID)
				return
			}
			delete(running, job.ID)
			for _, n := range nodes {
				free.Add(n)
			}
			st := &res.Stats[job.ID]
			st.Preemptions++
			res.BusyNodeSeconds += int64(len(nodes)) * (now - st.Start)
			st.Started = false
			// The pending completion event becomes stale; it is filtered by
			// the generation check below.
			st.genCounter++
		}
		progress := false
		for _, d := range cr.Decisions {
			st := &res.Stats[d.Job.ID]
			if !st.Submitted || st.Completed || st.Dropped {
				fail("sim: scheduler launched non-pending job %d", d.Job.ID)
				return
			}
			if _, isRunning := running[d.Job.ID]; isRunning {
				fail("sim: scheduler launched already-running job %d", d.Job.ID)
				return
			}
			if lo, hi := d.Job.WidthRange(); len(d.Nodes) < lo || len(d.Nodes) > hi {
				fail("sim: job %d gang width %d outside [%d,%d]", d.Job.ID, len(d.Nodes), lo, hi)
				return
			}
			for _, n := range d.Nodes {
				if n < 0 || n >= cfg.Cluster.N() || !free.Contains(n) {
					fail("sim: job %d assigned unavailable node %d", d.Job.ID, n)
					return
				}
				free.Remove(n)
			}
			running[d.Job.ID] = append([]int(nil), d.Nodes...)
			st.Started = true
			st.Start = now
			tr.Instant("job", "start", trace.I("job", int64(d.Job.ID)),
				trace.I("width", int64(len(d.Nodes))), trace.I("waited", now-d.Job.Submit))
			st.Nodes = append([]int(nil), d.Nodes...)
			progress = true
			job := d.Job
			gen := st.genCounter
			actual := workload.ActualRuntime(cfg.Cluster, job, d.Nodes)
			eng.After(actual, func() {
				if res.Stats[job.ID].genCounter != gen || !res.Stats[job.ID].Started {
					return // stale completion from a preempted incarnation
				}
				finish(job)
			})
		}
		for _, job := range cr.Dropped {
			st := &res.Stats[job.ID]
			if !st.Submitted || st.Completed || st.Dropped {
				fail("sim: scheduler dropped non-pending job %d", job.ID)
				return
			}
			if _, isRunning := running[job.ID]; isRunning {
				fail("sim: scheduler dropped running job %d", job.ID)
				return
			}
			st.Dropped = true
			st.Finish = now
			cfg.Plan.Release(cfg.Plan.Lookup(job.ID), now)
			remaining--
			progress = true
			if now > res.Makespan {
				res.Makespan = now
			}
		}
		if progress || len(running) > 0 || submittedAll < len(cfg.Jobs) {
			idleCycles = 0
		} else {
			idleCycles++
			if idleCycles > cfg.MaxIdleCycles {
				res.Stalled = true
				return
			}
		}
		if remaining > 0 {
			eng.After(cfg.CyclePeriod, cycle)
		}
	}
	eng.At(0, cycle)

	for eng.Step() {
		if firstErr != nil {
			return res, firstErr
		}
	}
	return res, firstErr
}
