package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tetrisched/internal/core"
)

// scale sizes the workloads. full is what BENCHMARK.json measures; quick is
// a few hundred milliseconds per workload, for the tests.
type scale struct {
	traceJobs      int           // jobs in the trace_* workloads' trace
	residentWarm   int           // untimed warm cycles of the resident_* workloads
	residentTimed  int           // timed cycles of the resident_* workloads
	frontdoorWall  time.Duration // open-loop traffic per frontdoor_open repetition
	frontdoorDrain time.Duration // how long unlaunched jobs may take after that
	minRounds      int           // times every input is repeated, whatever --seconds says
	minSteady      int           // steady cycles a run needs to quote a p95; 0 = unchecked
	maxInputs      int           // cap on a workload's distinct inputs; 0 = none
	replayBudget   time.Duration // wall time the traced run's stage replay may take
}

var (
	fullScale = scale{traceJobs: 400, residentWarm: 16, residentTimed: 50,
		frontdoorWall: 2 * time.Second, frontdoorDrain: 2 * time.Second,
		minRounds: 2, minSteady: minSteadyCycles, replayBudget: 7 * time.Second}
	quickScale = scale{traceJobs: 50, residentWarm: 3, residentTimed: 6,
		frontdoorWall: 300 * time.Millisecond, frontdoorDrain: time.Second,
		minRounds: 1, maxInputs: 1, replayBudget: 200 * time.Millisecond}
)

// workloadDef is one named workload. A run builds a few inputs from its seed
// and repeats them in rounds: every repetition sets a fresh scheduler up
// (timed as set-up) and measures it on its input.
type workloadDef struct {
	name string
	why  string
	// repeatable says the schedule is a pure function of the seed: every
	// round takes the same cycles in the same order, and the schedule hash
	// must repeat across rounds and across untraced, traced and A/A runs.
	// Only frontdoor_open, which runs against the wall clock, is not: its
	// rounds see the same arrivals at the same ticks unless a connection ran
	// late.
	repeatable bool
	// inputs is how many distinct inputs a run builds from its seed and
	// repeats in rounds (0 means 1). The resident_* workloads need four: their
	// construction allows only 60 timed cycles per scheduler, and a p95 wants
	// minSteadyCycles distinct cycles.
	inputs int
	// sloFloor is the SLO attainment below which the run is not correct: the
	// guard against buying speed with a worse schedule. 0 = no SLO jobs.
	sloFloor float64
	layers   func() layers
	rep      func(r *run, i int) error
}

// repRec is what one repetition's measure phase yields for the end-to-end
// metrics.
type repRec struct {
	cycles   []float64     // ms per busy cycle, as the caller saw it
	busy     time.Duration // wall time inside the scheduler (or the daemon's handlers)
	disposed int           // jobs launched or dropped
	pending  int           // jobs pending, summed over the busy cycles
	alloc    uint64        // bytes allocated
	hash     uint64        // schedule hash
}

// run collects what one invocation measures, across its repetitions.
type run struct {
	w      *workloadDef
	seed   int64
	sc     scale
	traced bool
	rec    *recorder   // nil when untraced
	caps   *captureSet // nil when untraced, and after the first repetition

	reps     []*repRec
	measured time.Duration // wall time of the measure phases
	setupS   sample        // per repetition
	coreMS   sample        // every busy cycle of every repetition, as the wrapped Cycle call saw it
	ops      int
	failed   int
	problems []string // oracle violations and harness errors

	// Schedule quality, from completions (trace_*) or the launch record
	// (frontdoor_open).
	sloMet, sloAll int
	beLatSum       float64
	beDone         int

	// Per-layer raw material.
	busy                          time.Duration // inside the three wrapped calls, all repetitions
	submitNS, finishedNS          int64
	submits, finishes             int
	decisions, dropped, preempted int
	pendingSum, pendingMax        int
	timeouts                      int
	maxSolver                     time.Duration
	traceNS                       int64
	driverSelf                    time.Duration // sim.Run wall minus wrapped scheduler time
	st                            core.SolveStats
	sh                            core.ShardStats
	admitNS                       int64
	admitJobs, admitAccepted      int
	fd                            frontdoorStats
	rp                            *replayStats
}

// The boxes this runs on slow down by 10–50% for milliseconds to minutes at a
// time, always in that direction (README, Noise floor). A percentile pooled
// over everything a run did mostly measures how many such stretches the run
// caught, so the reductions below look at the same work through the quieter
// part of the run: every input is repeated in rounds, and what the rounds
// have in common is reduced across them. Failures are always counted over
// everything, and the traced run also reports the pooled percentiles
// (core.cycle_ms_*).

// inputs is how many distinct inputs the run repeats in turn.
func (r *run) inputs() int {
	n := r.w.inputs
	if n < 1 {
		n = 1
	}
	if r.sc.maxInputs > 0 && n > r.sc.maxInputs {
		n = r.sc.maxInputs
	}
	return n
}

// inputSeed is the seed repetition i builds its input from: the inputs run
// round robin, so that every round times the same cycles again.
func (r *run) inputSeed(i int) int64 {
	return r.seed*1000003 + int64(i%r.inputs())*7919 + 1
}

// rounds returns the repetitions that ran input in.
func (r *run) rounds(in int) []*repRec {
	var out []*repRec
	for i := in; i < len(r.reps); i += r.inputs() {
		out = append(out, r.reps[i])
	}
	return out
}

// floor is the lower quartile of v (the minimum, with fewer than five
// values): what the quieter rounds took. It sorts v.
func floor(v []float64) float64 {
	sort.Float64s(v)
	return v[(len(v)-1)/4]
}

// overRounds reduces one number per repetition across the rounds of each
// input and adds the inputs up.
func (r *run) overRounds(of func(*repRec) float64, reduce func([]float64) float64) float64 {
	total := 0.0
	for in := 0; in < r.inputs(); in++ {
		var v []float64
		for _, rp := range r.rounds(in) {
			v = append(v, of(rp))
		}
		if len(v) > 0 {
			total += reduce(v)
		}
	}
	return total
}

// steady reduces the repetitions' cycle times to one time per distinct
// cycle: cycle k of an input is the same computation in every round (on
// frontdoor_open, which runs against the wall clock, nearly the same), so its
// time is the floor of what the rounds took.
func (r *run) steady() *sample {
	s := &sample{}
	for in := 0; in < r.inputs(); in++ {
		rounds := r.rounds(in)
		if len(rounds) == 0 {
			break
		}
		n := len(rounds[0].cycles)
		for _, rp := range rounds { // equal on a repeatable workload, unless the run already failed on that
			if len(rp.cycles) < n {
				n = len(rp.cycles)
			}
		}
		col := make([]float64, len(rounds))
		for k := 0; k < n; k++ {
			for i, rp := range rounds {
				col[i] = rp.cycles[k]
			}
			s.add(floor(col))
		}
	}
	return s
}

// jobsPerSecond is jobs disposed of per second of scheduler time, at the
// floor of each input's busy time over its rounds.
func (r *run) jobsPerSecond() float64 {
	jobs := r.overRounds(func(rp *repRec) float64 { return float64(rp.disposed) }, median)
	busy := r.overRounds(func(rp *repRec) float64 { return rp.busy.Seconds() }, floor)
	return ratio(jobs, busy)
}

// allocPer spreads the bytes the measure phases allocated over a count each
// repetition kept. A repeatable workload's allocations repeat with its
// schedule; the floor over rounds keeps a frontdoor_open repetition that fell
// behind the offered load, and so batched and allocated more, from counting.
func (r *run) allocPer(count func(*repRec) float64) float64 {
	return r.overRounds(func(rp *repRec) float64 { return ratio(float64(rp.alloc), count(rp)) }, floor) / float64(r.inputs())
}

// outDir is where traced runs leave their Chrome trace files, relative to
// the working directory (the repository root for `go run ./benchmark`).
var outDir = filepath.Join("benchmark", "out")

func (r *run) label(i int) string {
	return fmt.Sprintf("%s seed %d repetition %d", r.w.name, r.seed, i)
}

func (r *run) problem(format string, args ...interface{}) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// absorb folds one repetition's probe into the run: the oracle's findings
// and the per-layer raw material. since is the scheduler's telemetry at the
// start of the measure phase, so set-up work (warm cycles) stays out of the
// per-layer numbers.
func (r *run) absorb(i int, rp *repRec, p *probe, since core.SolveStats) {
	rp.hash = p.or.hash
	for _, v := range p.or.violations {
		r.problem("%s: oracle: %s", r.label(i), v)
	}
	r.busy += p.busy
	r.coreMS.v = append(r.coreMS.v, p.cycleMS.v...)
	r.submitNS += p.submitNS
	r.finishedNS += p.finishedNS
	r.submits += p.submits
	r.finishes += p.finishes
	r.decisions += p.decisions
	r.dropped += p.dropped
	r.preempted += p.preempted
	r.pendingSum += p.pendingSum
	if p.pendingMax > r.pendingMax {
		r.pendingMax = p.pendingMax
	}
	r.timeouts += p.timeouts
	if p.maxSolver > r.maxSolver {
		r.maxSolver = p.maxSolver
	}
	r.traceNS += p.traceNS

	now := p.inner.SolveStatsSnapshot()
	r.st.Solves += now.Solves - since.Solves
	r.st.Runtime += now.Runtime - since.Runtime
	r.st.GenerateNS += now.GenerateNS - since.GenerateNS
	r.st.CompileNS += now.CompileNS - since.CompileNS
	r.st.ExprHits += now.ExprHits - since.ExprHits
	r.st.ExprMisses += now.ExprMisses - since.ExprMisses
	r.st.CompileSkips += now.CompileSkips - since.CompileSkips
	r.st.CompileJobs += now.CompileJobs - since.CompileJobs
	r.st.ReuseHits += now.ReuseHits - since.ReuseHits
	r.st.ReuseMisses += now.ReuseMisses - since.ReuseMisses
	sh := p.inner.ShardStatsSnapshot()
	r.sh.Cycles += sh.Cycles
	r.sh.Spanning += sh.Spanning
	r.sh.Conflicts += sh.Conflicts
	r.sh.Requeued += sh.Requeued
	r.sh.ArbLaunched += sh.ArbLaunched
	r.sh.ArbDeferred += sh.ArbDeferred
}

// countCycles books a repetition whose operations are scheduler cycles: one
// op per busy cycle, busy time inside the three wrapped calls.
func (r *run) countCycles(rp *repRec, p *probe) {
	rp.cycles, rp.busy, rp.disposed, rp.pending = p.cycleMS.v, p.busy, p.disposed, p.pendingSum
	r.ops += p.cycleMS.n()
	r.failed += p.failedOps
}

// measure runs fn as a repetition's measure phase: it accounts the wall time
// toward --seconds and the bytes allocated toward alloc_kb_per_job_cycle, and
// opens the repetition's record for the caller to fill in.
func (r *run) measure(fn func()) *repRec {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	r.measured += time.Since(t0)
	runtime.ReadMemStats(&m1)
	rp := &repRec{alloc: m1.TotalAlloc - m0.TotalAlloc}
	r.reps = append(r.reps, rp)
	return rp
}

// execute repeats the workload until the measure phases add up to seconds
// (and every input ran at least sc.minRounds times), then, on a traced run, replays
// the captured cycles stage by stage and writes the spans out.
func execute(w *workloadDef, seed int64, seconds float64, traced bool, sc scale) *run {
	r := &run{w: w, seed: seed, sc: sc, traced: traced}
	if traced {
		r.rec = newRecorder()
		r.caps = &captureSet{}
	}
	var caps []capture
	m := r.inputs()
	for i := 0; ; i++ {
		if err := w.rep(r, i); err != nil {
			r.problem("%s: %v", r.label(i), err)
			break
		}
		if (i+1)%m != 0 {
			continue // rounds are whole: every input gets the same repetitions
		}
		if i+1 == m && traced {
			// Later rounds see the same cycles; one set of captures is all
			// the replay can use.
			caps, r.caps = r.caps.items, nil
		}
		if (i+1)/m >= sc.minRounds && r.measured.Seconds() >= seconds {
			break
		}
	}
	if w.repeatable && len(r.problems) == 0 {
		for i, rp := range r.reps[m:] {
			if first := r.reps[i%m]; rp.hash != first.hash || len(rp.cycles) != len(first.cycles) {
				r.problem("%s: schedule differs from the first round's (hash %016x vs %016x, %d vs %d cycles)",
					r.label(i+m), rp.hash, first.hash, len(rp.cycles), len(first.cycles))
			}
		}
	}
	if n := r.steady().n(); n < sc.minSteady && len(r.problems) == 0 {
		r.problem("%s: %d steady cycles, a p95 needs %d (%d samples beyond it)", r.label(0), n, sc.minSteady, minTailSamples)
	}
	if traced {
		r.rp = replay(w.layers(), caps, sc.replayBudget)
		path := filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace.json", w.name, seed))
		if err := writeChrome(path, r.rec.spans); err != nil {
			// The trace file is a by-product; a read-only tree must not fail
			// the measurement.
			warnf("%v", err)
		}
	}
	return r
}

// scheduleHash folds the first round's schedule hashes, one per input, into
// the one value runs of the same seed are compared by.
func (r *run) scheduleHash() uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < r.inputs() && i < len(r.reps); i++ {
		h = (h ^ r.reps[i].hash) * fnvPrime
	}
	return h
}

// correct reports whether every output the run could check was right.
func (r *run) correct() bool {
	if len(r.problems) > 0 || len(r.reps) == 0 {
		return false
	}
	return r.w.sloFloor == 0 || r.sloPct() >= r.w.sloFloor
}

func (r *run) sloPct() float64 { return 100 * ratio(float64(r.sloMet), float64(r.sloAll)) }

func warnf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: warning: "+format+"\n", args...)
}
