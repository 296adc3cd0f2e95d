package main

import (
	"sync/atomic"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// probe wraps a core.Scheduler behind sim.Scheduler and measures it from the
// outside. It always times the three calls, mirrors the pending set for the
// oracle, and keeps per-cycle wall times; with a recorder attached (the
// traced run) it also records a span per call and captures cycle inputs for
// the offline stage replay.
//
// A probe is not safe for concurrent use; every caller (sim.Run, the resident
// loop, httpapi.Server under its scheduler lock) already serializes scheduler
// access.
type probe struct {
	inner *core.Scheduler
	c     *cluster.Cluster
	label string // workload/seed/repetition, for warnings
	or    *oracle

	busy       time.Duration // wall time inside Submit + JobFinished + Cycle
	submitNS   int64
	finishedNS int64
	submits    int
	finishes   int
	disposed   int // jobs launched or dropped
	decisions  int
	dropped    int
	preempted  int

	cycleMS    sample // busy cycles only: at least one job pending at the call
	pendingSum int    // jobs pending at the call, over the busy cycles
	cycleIdx   int    // every Cycle call, busy or not
	failedOps  int    // busy cycles that hit the solver limit or failed the oracle
	maxSolver  time.Duration
	timeouts   int
	warned     bool

	// Traced run only.
	rec        *recorder
	httpParent *atomic.Int64 // open http.request span of the scheduler connection, or nil
	traceNS    int64         // time spent on traced-only bookkeeping
	pendingMax int
	caps       *captureSet
	submitAt   map[int]time.Time // job ID → wrapped Submit time, for queue wait
}

var _ sim.Scheduler = (*probe)(nil)

// solverLimit is core.Config's default SolverTimeLimit, which every workload
// keeps.
const solverLimit = 2 * time.Second

// cyclePeriod is the scheduling period in virtual seconds (paper: 4 s).
const cyclePeriod = 4

// newProbe wraps inner. rec is nil on an untraced run; caps is nil unless
// this probe's cycles are to be captured for the replay.
func newProbe(inner *core.Scheduler, c *cluster.Cluster, label string, rec *recorder, caps *captureSet) *probe {
	p := &probe{inner: inner, c: c, label: label,
		or: newOracle(c.N()), rec: rec, caps: caps}
	if rec != nil {
		p.submitAt = make(map[int]time.Time)
	}
	return p
}

func (p *probe) Name() string { return p.inner.Name() }

// parent returns the span that caused a scheduler call: the HTTP request in
// flight on the scheduler connection, or none.
func (p *probe) parent() int {
	if p.httpParent == nil {
		return -1
	}
	return int(p.httpParent.Load())
}

func (p *probe) Submit(now int64, j *workload.Job) {
	sp := -1
	if p.rec != nil {
		sp = p.rec.begin("core.Submit", p.parent(), int64(j.ID))
	}
	t0 := time.Now()
	p.inner.Submit(now, j)
	d := time.Since(t0)
	if sp >= 0 {
		p.rec.end(sp)
		p.submitAt[j.ID] = t0
	}
	p.busy += d
	p.submitNS += int64(d)
	p.submits++
	p.or.submit(j)
}

func (p *probe) JobFinished(now int64, j *workload.Job) {
	sp := -1
	if p.rec != nil {
		sp = p.rec.begin("core.JobFinished", p.parent(), int64(j.ID))
	}
	t0 := time.Now()
	p.inner.JobFinished(now, j)
	d := time.Since(t0)
	if sp >= 0 {
		p.rec.end(sp)
	}
	p.busy += d
	p.finishedNS += int64(d)
	p.finishes++
	p.or.finished(j)
}

func (p *probe) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	nPending := len(p.or.pending)
	sp := -1
	if p.rec != nil {
		t := time.Now()
		if nPending > 0 {
			if p.caps != nil {
				p.caps.offer(p, now)
			}
			if nPending > p.pendingMax {
				p.pendingMax = nPending
			}
		}
		p.traceNS += int64(time.Since(t))
		sp = p.rec.begin("core.Cycle", p.parent(), int64(p.cycleIdx))
	}
	t0 := time.Now()
	cr := p.inner.Cycle(now, free)
	d := time.Since(t0)
	if sp >= 0 {
		p.rec.end(sp)
	}
	p.cycleIdx++
	p.busy += d
	clean := p.or.check(now, free, &cr)
	p.decisions += len(cr.Decisions)
	p.dropped += len(cr.Dropped)
	p.preempted += len(cr.Preempted)
	p.disposed += len(cr.Decisions) + len(cr.Dropped)
	if nPending == 0 {
		return cr
	}
	p.cycleMS.add(float64(d) / 1e6)
	p.pendingSum += nPending
	if cr.SolverLatency > p.maxSolver {
		p.maxSolver = cr.SolverLatency
	}
	// Time-limit guard: a solve that ran into the limit was cut off by the
	// wall clock, so the schedule after it depends on machine speed.
	if cr.SolverLatency >= solverLimit {
		p.timeouts++
		clean = false
	} else if cr.SolverLatency >= solverLimit/2 && !p.warned {
		p.warned = true
		warnf("%s: cycle %d (t=%d) spent %v in the solver, over half the %v limit",
			p.label, p.cycleIdx-1, now, cr.SolverLatency.Round(time.Millisecond), solverLimit)
	}
	if !clean {
		p.failedOps++
	}
	return cr
}
