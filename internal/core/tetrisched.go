// Package core implements the TetriSched scheduler — the paper's primary
// contribution. Each cycle it aggregates the STRL requests of all pending
// jobs, compiles them into a single MILP, solves it within a configurable
// optimality gap, launches the jobs whose chosen start time is now, and
// throws the rest of the plan away to be re-derived next cycle (adaptive
// plan-ahead, §3.2.1).
//
// The Table 2 ablations are configuration switches: Greedy disables global
// scheduling (TetriSched-NG: per-job solves in three priority queues), NoHet
// disables soft-constraint awareness (TetriSched-NH), and PlanAhead=0
// disables deferred placement (TetriSched-NP, equivalent to alsched).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
	"tetrisched/internal/randx"
	"tetrisched/internal/shard"
	"tetrisched/internal/sim"
	"tetrisched/internal/slab"
	"tetrisched/internal/strl"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// Config selects the TetriSched variant and solver budget.
type Config struct {
	// CyclePeriod is the scheduling cycle in seconds and also the time
	// quantum of the plan-ahead discretization (paper: 4s).
	CyclePeriod int64
	// PlanAhead is the deferred-placement window in seconds; 0 disables
	// plan-ahead (TetriSched-NP).
	PlanAhead int64
	// Greedy switches to per-job scheduling over three priority FIFO queues
	// (TetriSched-NG).
	Greedy bool
	// NoHet disables heterogeneity awareness in STRL generation
	// (TetriSched-NH).
	NoHet bool
	// Gap is the relative MIP gap the solver may stop at (§3.2.2; paper uses
	// 10%).
	Gap float64
	// SolverTimeLimit bounds each MILP solve's LP work, in seconds of a
	// reference machine's (milp.Options.TimeLimit): a count, not a clock.
	SolverTimeLimit time.Duration
	// MaxBatch caps how many pending jobs one global solve aggregates; the
	// highest-priority jobs are batched first (§5: "TetriSched has the
	// flexibility of aggregating a subset of the pending jobs").
	MaxBatch int
	// DisableCompileCache turns off all three cross-cycle layers: the per-job
	// STRL expression cache, the keeping of compiled coupling classes, and the
	// replay of a kept class's sub-solutions (internal/core/classes.go). A
	// class is kept while its request objects and the believed release slices
	// of its nodes are the same, and fresh requests never are, so every cycle
	// then regenerates, recompiles and solves everything. A bisection switch:
	// it changes speed and, at a gap above zero, which incumbent inside the
	// gap a solve stops at, never the policy (docs/SOLVER.md).
	DisableCompileCache bool
	// Shards enables the sharded shared-state control plane (internal/shard,
	// docs/SHARDING.md): the cluster is partitioned into Shards shards, each
	// planned by its own concurrent per-shard sub-solve over an optimistic
	// copy of the shared supply, with commit-time double-claim detection
	// (losers requeue in order) and a gang arbitrator serializing jobs whose
	// space-time demand spans shards. 0 — the default and the kill switch —
	// keeps the monolithic global MILP; 1 is policy-identical to monolithic
	// (pinned by the sharding parity property test). Ignored in Greedy mode.
	Shards int
	// BEDecay overrides the best-effort value decay horizon in seconds.
	BEDecay int64
	// Tracer, when non-nil, records per-cycle spans (generate, compile,
	// solve, extract) and per-decision events into the structured tracing
	// subsystem (internal/trace, docs/OBSERVABILITY.md). Nil disables
	// tracing at the cost of one branch per hook point.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.CyclePeriod <= 0 {
		c.CyclePeriod = sim.DefaultCyclePeriod
	}
	if c.Gap <= 0 {
		c.Gap = 0.1
	}
	if c.SolverTimeLimit <= 0 {
		c.SolverTimeLimit = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 48
	}
	return c
}

// Name returns the Table 2 variant name for the configuration.
func (c Config) Name() string {
	switch {
	case c.Greedy:
		return "TetriSched-NG"
	case c.NoHet:
		return "TetriSched-NH"
	case c.PlanAhead <= 0:
		return "TetriSched-NP"
	default:
		return "TetriSched"
	}
}

// SolveStats accumulates per-solve MILP telemetry for the scalability
// analysis (§6.6): how many solves ran and how much tree they explored.
type SolveStats struct {
	Solves     int           // MILP invocations across all cycles
	Nodes      int           // branch-and-bound nodes explored, total
	MaxNodes   int           // largest single-solve node count
	WarmStarts int           // solves seeded with the previous cycle's shifted plan
	Runtime    time.Duration // cumulative solver wall-clock
	MaxSolve   time.Duration // slowest single solve
	Decomposed int           // global solves that split into independent components
	Components int           // sub-MILPs solved across all decomposed solves
	Unproven   int           // sub-solves that ended without an optimality proof, with an incumbent or none

	// Replay telemetry (internal/core/classes.go): every component counts
	// exactly once per cycle, as a hit (kept sub-solution replayed) or a miss
	// (solved); both stay zero under DisableCompileCache.
	ReuseHits   int // component sub-solves replayed from the previous cycle
	ReuseMisses int // components that had to be solved

	// Cycle front-end telemetry (internal/core/classes.go). The timers accrue
	// regardless of configuration; the hit/skip counters stay zero when the
	// compile cache is disabled, so the kill switch is honest in both
	// directions.
	GenerateNS   int64 // STRL generation wall-clock across all cycles, nanoseconds
	CompileNS    int64 // classify+compile+decompose+route wall-clock across all cycles, nanoseconds
	ExprHits     int   // pending jobs whose STRL request was served or trimmed from the expression cache
	ExprMisses   int   // pending jobs whose request was generated with the expression cache enabled
	CompileSkips int   // batched jobs whose class was kept, compiled model and all
	CompileJobs  int   // batched jobs whose class was compiled in a global cycle

	// Global cycles that repeated the scheduler's fixed point instead of
	// planning (fixedPoint); zero when the compile cache is disabled.
	RepeatedCycles int

	// The solver's own counters, summed over every solve that searched: LP
	// kernel and basis engine (internal/milp/simplex.go, lu.go) and branching
	// rule (internal/milp/pseudocost.go).
	LP     milp.LPStats
	Branch milp.BranchStats
}

// WarmHitRate returns the fraction of node LPs served warm from a parent
// basis (0 when no LPs have run).
func (st *SolveStats) WarmHitRate() float64 {
	total := st.LP.WarmHits + st.LP.ColdStarts
	if total == 0 {
		return 0
	}
	return float64(st.LP.WarmHits) / float64(total)
}

// ReuseHitRate returns the fraction of component sub-solves served by
// cross-cycle replay (0 when no class was ever planned with the cache on).
func (st *SolveStats) ReuseHitRate() float64 {
	total := st.ReuseHits + st.ReuseMisses
	if total == 0 {
		return 0
	}
	return float64(st.ReuseHits) / float64(total)
}

// CompileSkipRate returns the fraction of batched jobs whose compiled model
// was reused verbatim instead of compiled (0 when no global cycle ran).
func (st *SolveStats) CompileSkipRate() float64 {
	total := st.CompileSkips + st.CompileJobs
	if total == 0 {
		return 0
	}
	return float64(st.CompileSkips) / float64(total)
}

// MeanSolve returns the mean wall-clock per MILP solve.
func (st *SolveStats) MeanSolve() time.Duration {
	if st.Solves == 0 {
		return 0
	}
	return st.Runtime / time.Duration(st.Solves)
}

// record folds one solve's telemetry into the running totals. warmSeeds is
// the number of sub-solves that actually received a non-nil incumbent seed —
// for a decomposed solve that is per component, not per cycle, so a seed the
// decomposition restricted away from every live component counts zero.
func (st *SolveStats) record(sol *milp.Solution, warmSeeds int, d time.Duration) {
	st.Solves++
	st.Runtime += d
	if d > st.MaxSolve {
		st.MaxSolve = d
	}
	st.WarmStarts += warmSeeds
	if sol == nil {
		return
	}
	st.Nodes += sol.Nodes
	if sol.Nodes > st.MaxNodes {
		st.MaxNodes = sol.Nodes
	}
	st.LP.Add(&sol.LP)
	st.Branch.Add(&sol.Branch)
}

// runInfo tracks the scheduler's belief about a running job.
type runInfo struct {
	job    *workload.Job
	nodes  []int
	estEnd int64 // believed completion; bumped forward when overrun (§7.1)
}

// planChoice remembers a deferred placement decision for warm-starting the
// next cycle.
type planChoice struct {
	key   string
	slice int64
}

// Scheduler is a TetriSched instance implementing sim.Scheduler.
type Scheduler struct {
	c       *cluster.Cluster
	cfg     Config
	gen     *strlgen.Generator
	rng     *randx.Source // node tie-breaking within equivalence groups
	pending []*workload.Job
	running map[int]*runInfo
	lastJob map[int]planChoice
	tr      *trace.Tracer

	// The class table (classes.go): the coupling classes of the last global
	// cycle with their compiled models and component solutions. exprCache is
	// nil when the compile cache is disabled.
	exprCache map[int]*exprEntry // job ID → cached STRL request + expiry
	retired   []*strlgen.Request // requests no job holds, until handBack recycles them
	classes   []*class           // by first member
	classOf   map[int]*class     // job ID → its class among classes
	spare     []*class           // swept classes, kept for their memory
	swept     []*class           // backing of next cycle's classes
	cycle     uint64             // global cycles run
	fixed     fixedPoint         // the inputs of the last cycle that planned nothing new
	held      []uint8            // per node: the planning cycles in a row it has been withheld, up to 63

	// Always-on memory the scheduler owns and reuses from cycle to cycle,
	// independent of any cache semantics; all of it starts empty and grows on
	// first use.
	ordered    []*workload.Job
	reqs       []*strlgen.Request
	rel        []int64 // believed release slice per node
	grp        grouping
	refs       []compRef
	parts      []milp.Part
	sols       []*milp.Solution // the parts' own solutions
	merged     milp.Solution    // the cycle's merged sub-solves
	seed       []float64        // plan's candidate seed, one component at a time
	working    *bitset.Set
	candidates []int              // pickNodes' free nodes of one group
	greedyScr  compiler.Scratch   // greedyCycle's per-job probes
	solveWS    milp.WorkspaceList // solver workspaces, one per SolveEach worker

	// Sharded control-plane state (internal/shard, docs/SHARDING.md); all nil
	// or zero when Config.Shards == 0 (the monolithic kill switch).
	shardSets  []*bitset.Set // node set per shard, from shard.ByProfile
	shardStats ShardStats

	// Stats accumulates solver telemetry for the scalability analysis.
	Stats SolveStats
}

// ShardStats accumulates sharded control-plane telemetry: how often the
// optimistic per-shard plans collided at commit time and how the gang
// arbitrator resolved spanning jobs.
type ShardStats struct {
	Shards      int    // configured shard count (0 = monolithic)
	Partitioner string // partitioning strategy name ("" when monolithic)
	Cycles      int64  // sharded global cycles executed
	Spanning    int64  // jobs routed to the gang arbitrator
	Conflicts   int64  // commit-time cross-shard double-claims detected
	Requeued    int64  // jobs requeued intact after losing a double-claim
	ArbLaunched int64  // arbitrator jobs launched
	ArbDeferred int64  // arbitrator jobs deferred or requeued intact
}

// ShardStatsSnapshot returns a copy of the cumulative sharding telemetry, which
// ShardMetrics names for /v1/status, /metrics and tetrisim -v.
func (s *Scheduler) ShardStatsSnapshot() ShardStats { return s.shardStats }

// sharded reports whether the sharded control plane is active.
func (s *Scheduler) sharded() bool { return s.shardSets != nil }

// SolveStatsSnapshot returns a copy of the cumulative solver telemetry, which
// SolverMetrics names for /v1/status, /metrics and tetrisim -v.
func (s *Scheduler) SolveStatsSnapshot() SolveStats { return s.Stats }

var _ sim.Scheduler = (*Scheduler)(nil)

// New creates a TetriSched scheduler for the cluster.
func New(c *cluster.Cluster, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	gcfg := strlgen.Default(cfg.CyclePeriod, cfg.PlanAhead)
	gcfg.NoHeterogeneity = cfg.NoHet
	if cfg.BEDecay > 0 {
		gcfg.BEDecay = cfg.BEDecay
	}
	s := &Scheduler{
		c:       c,
		cfg:     cfg,
		gen:     strlgen.New(c, gcfg),
		rng:     randx.New(1), // fixed seed: runs stay deterministic
		running: make(map[int]*runInfo),
		lastJob: make(map[int]planChoice),
		tr:      cfg.Tracer,
		classOf: make(map[int]*class),
		fixed:   fixedPoint{free: bitset.New(c.N())},
	}
	if s.feEnabled() {
		s.exprCache = make(map[int]*exprEntry)
	}
	if cfg.Shards > 0 && !cfg.Greedy {
		p := shard.ByProfile{} // racks dealt round-robin within each hardware profile
		s.shardSets = p.Partition(c, cfg.Shards)
		s.shardStats.Shards = len(s.shardSets)
		s.shardStats.Partitioner = p.Name()
	}
	return s
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return s.cfg.Name() }

// CyclePeriod is the scheduling cycle in seconds.
func (s *Scheduler) CyclePeriod() int64 { return s.cfg.CyclePeriod }

// Submit implements sim.Scheduler. The job enters the queue at its place in
// queue order (byQueue), after every job that ties with it.
func (s *Scheduler) Submit(now int64, j *workload.Job) {
	i := sort.Search(len(s.pending), func(i int) bool { return byQueue(s.pending[i], j) > 0 })
	s.pending = slices.Insert(s.pending, i, j)
	s.markJobDirty(j.ID)
}

// JobFinished implements sim.Scheduler. Finishing (or failing — the driver
// reports both here) invalidates the job everywhere the scheduler remembers
// it: the running set and the class table. The nodes it held change their
// believed release slices, which the classes holding them notice.
func (s *Scheduler) JobFinished(now int64, j *workload.Job) {
	delete(s.running, j.ID)
	s.markJobDirty(j.ID)
}

// priority orders pending jobs into the three queues of §6.3: accepted SLO,
// SLO without reservation, best effort — each FIFO by arrival.
func priority(j *workload.Job) int {
	switch {
	case j.Class == workload.SLO && j.Reserved:
		return 0
	case j.Class == workload.SLO:
		return 1
	default:
		return 2
	}
}

// byQueue is queue order: priority, then arrival. Arrival is the job's Submit
// time, not when Submit was called: failure restarts re-enter the queue later,
// and filing an early-arriving restart behind later arrivals would break the
// FIFO-within-class guarantee of §6.3. Ties (same class, same Submit) break by
// the front door's weighted-fair admission sequence when one was stamped
// (workload.Job.AdmitSeq — jobs admitted in the same cycle share a Submit, and
// ID order would hand the queue position back to whichever tenant allocated
// lower IDs), then by job ID, which matches original submission order for
// simulator-generated jobs.
func byQueue(a, b *workload.Job) int {
	return cmp.Or(cmp.Compare(priority(a), priority(b)), cmp.Compare(a.Submit, b.Submit),
		cmp.Compare(a.AdmitSeq, b.AdmitSeq), cmp.Compare(a.ID, b.ID))
}

// orderedPending returns the pending jobs in queue order: a copy of the queue,
// which Submit keeps in that order and the cycle edits while it walks the
// copy.
func (s *Scheduler) orderedPending() []*workload.Job {
	s.ordered = append(s.ordered[:0], s.pending...)
	return s.ordered
}

// removePending deletes a job from the pending queue.
func (s *Scheduler) removePending(j *workload.Job) {
	for i, p := range s.pending {
		if p.ID == j.ID {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// releaseSlices computes each node's believed release slice from the running
// set, bumping overrun estimates forward one cycle (mis-estimate handling). A
// node that runs no known job but is missing from the free set is not idle
// either: the caller withheld it, so no start-now grant is planned on it. Its
// optimism is bounded: withheld for w planning cycles in a row, it is believed
// released at slice min(2^(w−1), horizon+1), so a job that waits for it
// stops holding back the jobs behind it once it lies past the window. w
// starts again when the node is offered or runs a known job. The vector is
// the scheduler's and is overwritten by the next call.
func (s *Scheduler) releaseSlices(now int64, free *bitset.Set) []int64 {
	if s.rel == nil {
		s.rel = make([]int64, s.c.N())
		s.held = make([]uint8, s.c.N())
	}
	rel := s.rel
	clear(rel)
	for _, r := range s.running {
		if r.estEnd <= now {
			r.estEnd = now + s.cfg.CyclePeriod
		}
		slices := (r.estEnd - now + s.cfg.CyclePeriod - 1) / s.cfg.CyclePeriod
		for _, n := range r.nodes {
			rel[n] = slices
		}
	}
	past := s.horizon() + 1
	for n, r := range rel {
		if r > 0 || free.Contains(n) {
			s.held[n] = 0
			continue
		}
		s.held[n] = min(s.held[n]+1, 63)
		rel[n] = min(int64(1)<<(s.held[n]-1), past)
	}
	return rel
}

// Cycle implements sim.Scheduler.
func (s *Scheduler) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	var res sim.CycleResult
	if len(s.pending) == 0 {
		return res
	}
	s.tr.SetVirtualTime(now)
	cycleSpan := s.tr.Begin("cycle", "cycle")
	// Generate STRL for every pending job; jobs with no remaining value are
	// culled (counted as SLO misses).
	ordered := s.orderedPending()
	genSpan := s.tr.Begin("strl", "generate")
	genT0 := time.Now()
	reqs := s.reqs[:0]
	nOptions := 0
	for _, j := range ordered {
		var req *strlgen.Request
		if s.exprCache != nil {
			// Expression cache: a job's request is generated once, reused
			// verbatim while its value-function expiry bound holds (value
			// functions are step functions of time, so most requests are
			// reusable for many cycles), and past it re-priced and trimmed in
			// place (a decaying best-effort value moves every cycle; a start
			// past its deadline is culled). Pointer-stable requests are what
			// lets a class recognize itself downstream (classes.go). A request
			// trimmed to nothing leaves req nil: the job is dropped below,
			// which purges its entry.
			if ent := s.exprCache[j.ID]; ent == nil {
				var until int64
				req, until = s.gen.GenerateTTL(now, j)
				s.Stats.ExprMisses++
				if req != nil {
					s.exprCache[j.ID] = &exprEntry{req: req, validUntil: until}
				}
			} else {
				ok := true
				if now > ent.validUntil {
					ent.validUntil, ok = s.gen.Reprice(now, ent.req)
				}
				if ok {
					req = ent.req
					s.Stats.ExprHits++
				}
			}
		} else {
			req = s.gen.Generate(now, j)
		}
		if req == nil {
			res.Dropped = append(res.Dropped, j)
			s.removePending(j)
			delete(s.lastJob, j.ID)
			s.markJobDirty(j.ID)
			s.tr.Instant("place", "drop", trace.I("job", int64(j.ID)))
			continue
		}
		nOptions += len(req.Options)
		reqs = append(reqs, req)
	}
	s.reqs = reqs
	s.Stats.GenerateNS += time.Since(genT0).Nanoseconds()
	genSpan.End(trace.I("jobs", int64(len(ordered))), trace.I("requests", int64(len(reqs))),
		trace.I("options", int64(nOptions)), trace.I("dropped", int64(len(res.Dropped))))
	if len(reqs) == 0 {
		cycleSpan.End(trace.I("decisions", 0), trace.I("dropped", int64(len(res.Dropped))))
		return res
	}
	if s.cfg.Greedy {
		s.greedyCycle(now, free, reqs, &res)
	} else {
		s.globalCycle(now, free, reqs, &res)
	}
	if s.exprCache == nil {
		// Uncached, every cycle generates afresh: no job holds these past it.
		s.retired = append(s.retired, reqs...)
	}
	cycleSpan.End(trace.I("pending", int64(len(s.pending))),
		trace.I("decisions", int64(len(res.Decisions))),
		trace.I("preempted", int64(len(res.Preempted))),
		trace.I("dropped", int64(len(res.Dropped))))
	return res
}

// globalCycle plans all pending requests together (§5): one MILP in effect,
// compiled and solved block by block (classes.go).
func (s *Scheduler) globalCycle(now int64, free *bitset.Set, reqs []*strlgen.Request, res *sim.CycleResult) {
	rel := s.releaseSlices(now, free)
	if s.fixed.holds(reqs, free, rel) {
		s.repeat()
		return
	}
	s.fixed.reqs = s.fixed.reqs[:0]
	batch := reqs
	if len(reqs) > s.cfg.MaxBatch {
		// Plan choices are valid for exactly one cycle (the shift-by-one-slice
		// assumption), but the clear-and-re-record pass below only covers the
		// batched requests. Jobs truncated out here would keep an entry whose
		// slice is off by however many cycles they stay truncated, so age them
		// out now rather than re-propose a wrong start later.
		for _, r := range reqs[s.cfg.MaxBatch:] {
			delete(s.lastJob, r.Job.ID)
		}
		reqs = reqs[:s.cfg.MaxBatch]
	}
	// Compile — or recognize the classes that are unchanged and skip them.
	// Jobs competing for disjoint node groups across the window form
	// independent sub-MILPs that solve concurrently, and branch-and-bound is
	// exponential in coupled model size, so the split shrinks search trees
	// multiplicatively: coupling classes are cut before lowering, and each
	// class's model is decomposed further along the supply rows that turned
	// out not to bind (in sharded mode, along shard lines instead).
	compSpan := s.tr.Begin("compile", "compile")
	compT0 := time.Now()
	classes, err := s.classify(reqs, rel)
	if err != nil {
		// Should be impossible for generated expressions; fail safe by
		// making no decisions this cycle.
		s.Stats.CompileNS += time.Since(compT0).Nanoseconds()
		compSpan.End(trace.S("error", err.Error()))
		return
	}
	nComps, nVars, nCons := 0, 0, 0
	for _, cl := range classes {
		nComps += len(cl.comps)
		nVars += cl.comp.Model.NumVars()
		nCons += cl.comp.Model.NumConstraints()
	}
	if s.sharded() {
		s.shardStats.Cycles++
		s.shardStats.Spanning += int64(classes[0].spanning)
	}
	s.Stats.CompileNS += time.Since(compT0).Nanoseconds()
	compSpan.End(trace.I("jobs", int64(len(reqs))), trace.I("classes", int64(len(classes))),
		trace.I("vars", int64(nVars)), trace.I("cons", int64(nCons)), trace.I("horizon", s.horizon()))

	solveSpan := s.tr.Begin("solve", "solve")
	t0 := time.Now()
	live := s.plan(classes)
	// Plan choices are valid for exactly one cycle (the shift-by-one-slice
	// assumption); now that they are turned into seeds, clear them and
	// re-record whatever this cycle defers.
	for _, r := range reqs {
		delete(s.lastJob, r.Job.ID)
	}
	var sol *milp.Solution
	var failed []*strlgen.Request
	warmSeeds := 0
	if live > 0 {
		sol, failed, warmSeeds, err = s.solve(classes)
		if nComps > 1 {
			// Decomposed/Components count sub-MILPs actually solved; a
			// replayed part ran no solver.
			s.Stats.Decomposed++
			s.Stats.Components += live
		}
	}
	elapsed := time.Since(t0)
	res.SolverLatency += elapsed
	if live > 0 {
		// A fully replayed cycle ran no MILP at all: recording it would count
		// a phantom solve.
		s.Stats.record(sol, warmSeeds, elapsed)
	}
	endSolveSpan(solveSpan, sol, err, warmSeeds > 0)
	if err != nil || (sol != nil && sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible) {
		// Solver produced nothing inside its budget (possible under extreme
		// backlog); fall back to greedy value-ordered packing so the cluster
		// never sits idle with pending work.
		s.tr.Instant("solve", "fallback", trace.I("jobs", int64(len(reqs))))
		s.fallbackPack(now, free.Clone(), reqs, res)
		return
	}

	// Extract in batch order, which is priority order: each class's plan is in
	// member order, so one cursor per class walks all of them together.
	extractSpan := s.tr.Begin("extract", "extract")
	if s.working == nil {
		s.working = bitset.New(s.c.N())
	}
	working := s.working
	working.CopyFrom(free)
	nGranted := 0
	for _, cl := range classes {
		cl.regrant()
	}
	for i, req := range reqs {
		cl := classes[s.grp.cls[i]]
		local := cl.pos
		cl.pos++
		for ; cl.at < len(cl.grants) && cl.grants[cl.at].Job == local; cl.at++ {
			g := cl.grants[cl.at]
			opt := req.OptionFor(g.Leaf)
			if opt == nil {
				continue
			}
			nGranted++
			arbJob := cl.assign != nil && cl.assign[local] == len(s.shardSets)
			if g.Start > 0 {
				s.lastJob[req.Job.ID] = planChoice{key: opt.Key, slice: g.Start}
				s.tr.Instant("place", "defer", trace.I("job", int64(req.Job.ID)),
					trace.S("option", opt.Key), trace.I("start_slice", g.Start))
				if arbJob {
					s.shardStats.ArbDeferred++
				}
				continue
			}
			// Commit the placement against the shared free set, in decode order
			// (priority order — losers of a race never jump ahead of winners).
			nodes := s.pickNodes(cl.comp, g, working, nil, 0)
			if nodes == nil {
				// Optimistic commit failed: the job stays pending intact and
				// replans next cycle, keeping its (priority, Submit, AdmitSeq,
				// ID) queue position.
				if s.sharded() {
					// A start-now grant fits the offered free set by itself, so
					// only an earlier commit of this cycle can have taken its nodes.
					s.shardStats.Conflicts++
					s.shardStats.Requeued++
					s.tr.Instant("shard", "shard.conflict", trace.I("job", int64(req.Job.ID)),
						trace.I("shard", int64(cl.assign[local])))
				}
				if arbJob {
					s.shardStats.ArbDeferred++
				}
				continue // extraction failed; stay pending and replan
			}
			if arbJob {
				s.shardStats.ArbLaunched++
			}
			s.launch(now, req.Job, nodes, opt, res)
		}
	}
	for _, cl := range classes {
		mustBeLive(cl.comp)
	}
	extractSpan.End(trace.I("granted", int64(nGranted)),
		trace.I("launched", int64(len(res.Decisions))))
	if len(failed) > 0 {
		// Sub-solves that returned nothing inside the shared budget degrade to
		// greedy packing against whatever the solved components left free.
		s.tr.Instant("solve", "fallback", trace.I("jobs", int64(len(failed))))
		s.fallbackPack(now, working, failed, res)
	}
	if live == 0 && len(res.Decisions)+len(res.Dropped)+len(res.Preempted) == 0 &&
		s.feEnabled() && !s.sharded() {
		s.fixed.record(batch, free, rel)
	}
}

// fixedPoint is the key of a global cycle that planned nothing new: it solved
// no component and decided, dropped and preempted nothing. It therefore
// reached no start-now grant either (so the tie-break RNG did not move): a
// monolithic cycle plans one only on nodes at release slice 0, all of them
// free, so every start-now grant it reaches launches. From the state such a
// cycle leaves, the same key — the same requests at the same revisions in the
// same order, the same free set and the same believed release slices — leads
// every step of a cycle back to that state: every class is kept and settled
// wholesale, the same deferred grants re-record the same plan choices, and
// nothing is launched. The next cycle with that key therefore repeats it
// without planning (docs/SOLVER.md, "A cycle that repeats a fixed point").
// Only the class table has such a key, so a cycle with the compile cache off,
// or a sharded one, never records it. reqs is empty when nothing is held.
type fixedPoint struct {
	reqs []*strlgen.Request // the batch as generated, before MaxBatch
	revs []uint32
	free *bitset.Set
	rel  []int64
}

func (fp *fixedPoint) record(reqs []*strlgen.Request, free *bitset.Set, rel []int64) {
	fp.reqs, fp.revs = append(fp.reqs[:0], reqs...), fp.revs[:0]
	for _, r := range reqs {
		fp.revs = append(fp.revs, r.Rev)
	}
	fp.free.CopyFrom(free)
	fp.rel = append(fp.rel[:0], rel...)
}

func (fp *fixedPoint) holds(reqs []*strlgen.Request, free *bitset.Set, rel []int64) bool {
	if len(fp.reqs) == 0 || !slices.Equal(fp.reqs, reqs) || !fp.free.Equal(free) || !slices.Equal(fp.rel, rel) {
		return false
	}
	for i, r := range reqs {
		if r.Rev != fp.revs[i] {
			return false
		}
	}
	return true
}

// repeat stands for a cycle at the fixed point: it decides nothing and adds
// what that cycle would have added, every batched job a compile skip and
// every component a replay.
func (s *Scheduler) repeat() {
	s.Stats.RepeatedCycles++
	for _, cl := range s.classes {
		s.Stats.CompileSkips += len(cl.reqs)
		s.Stats.ReuseHits += len(cl.ents)
		for ci := range cl.ents {
			s.traceReuse(cl, ci)
		}
	}
}

// solve hands the components plan left without a solution to SolveEach, and
// files each one's grants (and its solution) with its class.
// It returns the merged telemetry of the solves, the requests of components
// that produced no incumbent, and how many solves were seeded.
func (s *Scheduler) solve(classes []*class) (sol *milp.Solution, failed []*strlgen.Request, warmSeeds int, err error) {
	// Components are listed in the order one decomposition of the whole batch
	// would list them (by first job). That order is the one in which failed
	// components' requests reach fallbackPack, which packs first come, first
	// served.
	refs := s.refs[:0]
	for _, cl := range classes {
		for ci := range cl.comps {
			refs = append(refs, compRef{first: cl.idx[cl.comps[ci].Jobs[0]], cl: cl, ci: ci})
		}
	}
	if len(classes) > 1 {
		slices.SortFunc(refs, func(a, b compRef) int { return a.first - b.first })
	}
	parts := slab.Sized(s.parts, len(refs))
	s.refs, s.parts = refs, parts
	for i, ref := range refs {
		cc, ent := &ref.cl.comps[ref.ci], &ref.cl.ents[ref.ci]
		parts[i] = milp.Part{Model: cc.Model, Seed: ent.seed, Reuse: ent.sol, Out: &ent.out}
		if ent.sol != nil {
			continue // replayed: no search, so no rounding to bind
		}
		parts[i].Heuristic = cc.RoundInPlace
		if ent.seed != nil {
			warmSeeds++
		}
		if s.tr != nil {
			parts[i].OnSolve = func() func(*milp.Solution) {
				sp := s.tr.Begin("solve", "solve.component")
				return func(ps *milp.Solution) { endComponentSpan(sp, cc, ps) }
			}
		}
	}
	sol, partSols, err := s.solveWS.SolveEach(parts, milp.Options{
		Gap:       s.cfg.Gap,
		TimeLimit: s.cfg.SolverTimeLimit,
	}, &s.merged, s.sols)
	if err != nil {
		return nil, nil, warmSeeds, err
	}
	s.sols = partSols
	for i, ref := range refs {
		cc, ent := &ref.cl.comps[ref.ci], &ref.cl.ents[ref.ci]
		if parts[i].Reuse != nil {
			continue
		}
		ref.cl.stale, ent.grants = true, ent.grants[:0]
		ps := partSols[i]
		if !proven(ps) {
			s.Stats.Unproven++
		}
		if ps == nil || ps.Values == nil {
			// Components that produced no incumbent fall back individually;
			// the solved components keep their decisions.
			for _, j := range cc.Jobs {
				failed = append(failed, ref.cl.reqs[j])
			}
			continue
		}
		ent.grants, ent.counts = cc.AppendGrants(ent.grants, ent.counts[:0], ps.Values)
		if s.feEnabled() {
			ent.sol = ps
		}
	}
	return sol, failed, warmSeeds, nil
}

// proven reports whether a sub-solve ended on an optimality proof; any other
// end (an incumbent the work budget cut off, or none) counts as Unproven. Both
// are functions of the model, seed and budget, and both are kept for replay.
func proven(sol *milp.Solution) bool { return sol != nil && sol.Status == milp.StatusOptimal }

// compRef names one component of one class by the batch position of its first
// job.
type compRef struct {
	first int
	cl    *class
	ci    int
}

// mustBeLive panics when comp's Scratch has compiled again since comp was built:
// the cycle has then solved and decoded some other batch's model. Staleness never
// reverts, so one check after a cycle's last read of its Compiled covers them
// all. Only a bug in this package can trip it, and a crash is better than the
// wrong schedule.
func mustBeLive(comp *compiler.Compiled) {
	if comp.Stale() {
		panic("core: the cycle's Compiled was compiled over while in use")
	}
}

// endComponentSpan closes one component sub-solve's span with the component's
// size and the sub-solution's telemetry.
func endComponentSpan(sp trace.Span, cc *compiler.Component, sol *milp.Solution) {
	args := make([]trace.Arg, 0, 8)
	if cc.Shard >= 0 {
		args = append(args, trace.I("shard", int64(cc.Shard)))
	}
	if sol == nil {
		args = append(args, trace.S("status", "error"),
			trace.I("jobs", int64(len(cc.Jobs))), trace.I("vars", int64(cc.Model.NumVars())))
		sp.End(args...)
		return
	}
	args = append(args, trace.S("status", sol.Status.String()),
		trace.I("jobs", int64(len(cc.Jobs))),
		trace.I("vars", int64(cc.Model.NumVars())),
		trace.I("cons", int64(cc.Model.NumConstraints())),
		trace.F("objective", sol.Objective),
		trace.I("nodes", int64(sol.Nodes)))
	sp.End(args...)
}

// endSolveSpan closes a solve span with the solution's telemetry payload; no
// solution and no error is a cycle that replayed every component.
func endSolveSpan(sp trace.Span, sol *milp.Solution, err error, warmSeed bool) {
	if err != nil {
		sp.End(trace.S("status", "error"), trace.S("error", err.Error()), trace.B("warm_seed", warmSeed))
		return
	}
	if sol == nil {
		sp.End(trace.S("status", "replayed"))
		return
	}
	sp.End(trace.S("status", sol.Status.String()),
		trace.F("objective", sol.Objective), trace.F("bound", sol.Bound),
		trace.I("nodes", int64(sol.Nodes)), trace.I("lp_iters", sol.LP.Iterations),
		trace.I("warm_lps", int64(sol.LP.WarmHits)), trace.I("cold_lps", int64(sol.LP.ColdStarts)),
		trace.B("warm_seed", warmSeed))
}

// greedyCycle is TetriSched-NG: one MILP per job, highest priority first,
// with earlier jobs' tentative space-time claims excluded from later solves.
func (s *Scheduler) greedyCycle(now int64, free *bitset.Set, reqs []*strlgen.Request, res *sim.CycleResult) {
	s.handBack() // there is no class table to sweep
	rel := s.releaseSlices(now, free)
	claims := newClaimSet()
	working := free.Clone()
	for _, req := range reqs {
		compSpan := s.tr.Begin("compile", "compile")
		compT0 := time.Now()
		// Each probe is compiled over the previous one: by then its grants
		// are decoded and nothing of it is kept.
		comp, err := s.greedyScr.Compile([]strl.Expr{req.Expr}, compiler.Options{
			Universe:  s.c.N(),
			Horizon:   s.horizon(),
			ReleaseAt: rel,
			BusyAt:    claims.busyAt,
		})
		s.Stats.CompileNS += time.Since(compT0).Nanoseconds()
		if err != nil {
			compSpan.End(trace.S("error", err.Error()))
			continue
		}
		compSpan.End(trace.I("job", int64(req.Job.ID)), trace.I("vars", int64(len(comp.Model.Vars))),
			trace.I("cons", int64(len(comp.Model.Cons))))
		solveSpan := s.tr.Begin("solve", "solve")
		t0 := time.Now()
		ws := s.solveWS.Get()
		sol, err := ws.Solve(comp.Model, milp.Options{
			Gap:       s.cfg.Gap,
			TimeLimit: s.cfg.SolverTimeLimit,
			Heuristic: comp.RoundInPlace,
		})
		s.solveWS.Put(ws)
		elapsed := time.Since(t0)
		res.SolverLatency += elapsed
		s.Stats.record(sol, 0, elapsed)
		if !proven(sol) {
			s.Stats.Unproven++
		}
		endSolveSpan(solveSpan, sol, err, false)
		if err != nil || sol.Values == nil {
			continue
		}
		for _, g := range comp.Decode(sol) {
			opt := req.OptionFor(g.Leaf)
			if opt == nil {
				continue
			}
			end := g.Start + g.Dur
			if g.Start == 0 {
				nodes := s.pickNodes(comp, g, working, claims, end)
				if nodes == nil {
					continue
				}
				s.launch(now, req.Job, nodes, opt, res)
				for _, n := range nodes {
					claims.add(n, 0, end)
				}
			} else {
				// Tentatively claim concrete nodes for the deferred start so
				// later (lower-priority) jobs plan around them.
				s.tr.Instant("place", "defer", trace.I("job", int64(req.Job.ID)),
					trace.S("option", opt.Key), trace.I("start_slice", g.Start))
				nodes := s.pickDeferred(comp, g, rel, claims)
				for _, n := range nodes {
					claims.add(n, g.Start, end)
				}
			}
		}
		mustBeLive(comp)
	}
}

// fallbackPack launches jobs greedily in priority order on their best
// start-now option, consuming working; used only for what the MILP solver
// returned no solution for within its budget — the whole batch, or the failed
// components' jobs packed into the capacity the solved ones left free.
func (s *Scheduler) fallbackPack(now int64, working *bitset.Set, reqs []*strlgen.Request, res *sim.CycleResult) {
	for _, req := range reqs {
		var best *strlgen.Option
		for i := range req.Options {
			o := &req.Options[i]
			if o.Leaf.Start != 0 {
				continue
			}
			// The leaf's K is the option's gang width (elastic options offer
			// several widths).
			if o.Leaf.Set.IntersectCount(working) < o.Leaf.K {
				continue
			}
			if best == nil || o.Leaf.Value > best.Leaf.Value {
				best = o
			}
		}
		if best == nil {
			continue
		}
		nodes := make([]int, 0, best.Leaf.K)
		avail := best.Leaf.Set.Intersect(working)
		avail.ForEach(func(n int) bool {
			nodes = append(nodes, n)
			return len(nodes) < best.Leaf.K
		})
		for _, n := range nodes {
			working.Remove(n)
		}
		s.launch(now, req.Job, nodes, best, res)
	}
}

// launch emits a decision and updates internal running state.
func (s *Scheduler) launch(now int64, j *workload.Job, nodes []int, opt *strlgen.Option, res *sim.CycleResult) {
	s.tr.Instant("place", "launch", trace.I("job", int64(j.ID)), trace.S("option", opt.Key),
		trace.I("nodes", int64(len(nodes))), trace.I("est_dur", opt.EstDur))
	res.Decisions = append(res.Decisions, sim.Decision{Job: j, Nodes: nodes})
	s.running[j.ID] = &runInfo{job: j, nodes: nodes, estEnd: now + opt.EstDur}
	s.removePending(j)
	delete(s.lastJob, j.ID)
	s.markJobDirty(j.ID)
}

// pickNodes selects concrete free nodes for a start-now grant: from each
// partition group, nodes that are free now and (for greedy) unclaimed for the
// whole occupancy interval [0, end).
func (s *Scheduler) pickNodes(comp *compiler.Compiled, g compiler.LeafGrant, working *bitset.Set, claims *claimSet, end int64) []int {
	// The candidates live in one buffer of the scheduler's; nodes goes out in
	// the decision, so it is fresh.
	nodes := make([]int, 0, g.Total)
	for _, gc := range g.Counts { // ascending groups: node selection is deterministic
		count := gc.N
		candidates := s.candidates[:0]
		comp.Part.Groups[gc.Group].ForEach(func(n int) bool {
			if !working.Contains(n) {
				return true
			}
			if claims != nil && claims.overlaps(n, 0, end) {
				return true
			}
			candidates = append(candidates, n)
			return true
		})
		s.candidates = candidates
		if len(candidates) < count {
			return nil // insufficient concrete nodes; replan next cycle
		}
		// Nodes within a group are interchangeable by construction; pick a
		// pseudo-random subset so placement quality outside the guaranteed
		// equivalence set (e.g. accidental rack locality of an "anywhere"
		// fallback) carries no systematic bias.
		s.rng.Shuffle(candidates)
		nodes = append(nodes, candidates[:count]...)
	}
	for _, n := range nodes {
		working.Remove(n)
	}
	return nodes
}

// pickDeferred selects concrete nodes free throughout a future interval for
// a tentative greedy claim; best effort (may return fewer than requested).
func (s *Scheduler) pickDeferred(comp *compiler.Compiled, g compiler.LeafGrant, rel []int64, claims *claimSet) []int {
	end := g.Start + g.Dur
	var nodes []int
	for _, gc := range g.Counts {
		count := gc.N
		comp.Part.Groups[gc.Group].ForEach(func(n int) bool {
			if count == 0 {
				return false
			}
			if rel[n] > g.Start {
				return true
			}
			if claims.overlaps(n, g.Start, end) {
				return true
			}
			nodes = append(nodes, n)
			count--
			return true
		})
	}
	return nodes
}

// horizon returns the plan-ahead window size in slices (≥1).
func (s *Scheduler) horizon() int64 {
	h := s.cfg.PlanAhead / s.cfg.CyclePeriod
	if h < 1 {
		h = 1
	}
	return h
}

// Pending returns the number of queued jobs (for tests and telemetry).
func (s *Scheduler) Pending() int { return len(s.pending) }

// Running returns the number of jobs the scheduler believes are running.
func (s *Scheduler) Running() int { return len(s.running) }

// String describes the scheduler.
func (s *Scheduler) String() string {
	return fmt.Sprintf("%s{cycle=%ds planAhead=%ds gap=%.0f%%}",
		s.Name(), s.cfg.CyclePeriod, s.cfg.PlanAhead, 100*s.cfg.Gap)
}
