package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/compiler"
	"tetrisched/internal/sim"
	"tetrisched/internal/strl"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// steadyScheduler builds the canonical reuse scenario: two overrunning
// best-effort blockers pin every node's believed release slice at 1 forever
// (releaseSlices bumps an overrun estimate to now+CyclePeriod each cycle), and
// two data-local SLO jobs with far deadlines and a value-culled remote
// fallback defer in place cycle after cycle. From cycle 1 on, both components'
// solve inputs are byte-identical to the previous cycle's.
func steadyScheduler(cfg Config) *Scheduler {
	c := cluster.NewBuilder().AddRack("r0", 8, nil).Build()
	sched := New(c, cfg)
	for i, lo := range []int{0, 4} {
		blocker := &workload.Job{ID: 100 + i, Class: workload.BestEffort, Type: workload.Unconstrained, K: 4, BaseRuntime: 4, Slowdown: 1}
		sched.running[blocker.ID] = &runInfo{job: blocker, nodes: []int{lo, lo + 1, lo + 2, lo + 3}, estEnd: 0}
	}
	for i, lo := range []int{0, 4} {
		sched.Submit(0, &workload.Job{
			ID: i, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: 0,
			// Slowdown 10 makes the whole-cluster fallback (400s) blow the
			// deadline at generation, keeping each job's leaves on its own
			// block; the local deadline never binds over the test's horizon,
			// so leaf values are independent of the current time.
			K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 300, DataNodes: []int{lo, lo + 1, lo + 2, lo + 3},
		})
	}
	return sched
}

// TestIncrementalSteadyStateReplays pins the tentpole behavior: in a
// steady-state cluster (pinned release slices, unchanged pending set) every
// component after the first cycle replays from the cache, no phantom solver
// telemetry accumulates, and the first change — a new arrival — invalidates
// exactly the component it lands in.
func TestIncrementalSteadyStateReplays(t *testing.T) {
	tr := trace.New(1 << 12)
	sched := steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0, Tracer: tr})
	const cycles = 10
	for i := 0; i < cycles; i++ {
		res := sched.Cycle(int64(i)*4, bitset.New(8))
		if len(res.Decisions) != 0 || len(res.Dropped) != 0 {
			t.Fatalf("cycle %d: unexpected activity %+v; the scenario should defer forever", i, res)
		}
	}
	// Cycle 0 fingerprints both components cold; every later cycle replays
	// both.
	if sched.Stats.ReuseMisses != 2 {
		t.Errorf("ReuseMisses = %d, want 2 (both components, first cycle only)", sched.Stats.ReuseMisses)
	}
	if want := 2 * (cycles - 1); sched.Stats.ReuseHits != want {
		t.Errorf("ReuseHits = %d, want %d (two components replayed per steady cycle)", sched.Stats.ReuseHits, want)
	}
	// Fully replayed cycles run no MILP: only cycle 0's decomposed solve may
	// appear in the solver telemetry.
	if sched.Stats.Solves != 1 {
		t.Errorf("Solves = %d, want 1: replayed cycles must not record phantom solves", sched.Stats.Solves)
	}
	if sched.Stats.Decomposed != 1 || sched.Stats.Components != 2 {
		t.Errorf("Decomposed = %d, Components = %d; want only cycle 0's 2 live sub-solves counted",
			sched.Stats.Decomposed, sched.Stats.Components)
	}
	reuseSpans := 0
	for _, e := range tr.Snapshot() {
		if e.Name == "solve.reuse" {
			reuseSpans++
		}
	}
	if want := 2 * (cycles - 1); reuseSpans != want {
		t.Errorf("recorded %d solve.reuse spans, want %d", reuseSpans, want)
	}

	// A new arrival in block 0 dirties its component; block 1's component
	// still replays.
	hits, misses := sched.Stats.ReuseHits, sched.Stats.ReuseMisses
	sched.Submit(int64(cycles)*4, &workload.Job{
		ID: 2, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: int64(cycles) * 4,
		K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 300, DataNodes: []int{0, 1, 2, 3},
	})
	sched.Cycle(int64(cycles)*4, bitset.New(8))
	if got := sched.Stats.ReuseMisses - misses; got != 1 {
		t.Errorf("arrival invalidated %d components, want exactly 1 (the block it landed in)", got)
	}
	if got := sched.Stats.ReuseHits - hits; got != 1 {
		t.Errorf("untouched component replayed %d times after the arrival, want 1", got)
	}
}

// TestIncrementalStateDrains is the cross-cycle leak audit: after a full
// simulation in which every job completes or is dropped, every per-job map —
// lastJob, running, pending, the expression cache and the class table's job
// index — must be empty and no class may still hold a sub-solution (terminal
// events purge eagerly; a drained scheduler sees no further global cycle to
// sweep the table), monolithic and sharded alike.
func TestIncrementalStateDrains(t *testing.T) {
	for _, shards := range []int{0, 2} {
		c := cluster.RC80(true)
		jobs, err := workload.Generate(workload.GSHET(15), c, 11)
		if err != nil {
			t.Fatal(err)
		}
		sched := New(c, Config{PlanAhead: 48, Shards: shards})
		if _, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched}); err != nil {
			t.Fatal(err)
		}
		if sched.Pending() != 0 || sched.Running() != 0 {
			t.Errorf("shards=%d: scheduler not drained: pending=%d running=%d", shards, sched.Pending(), sched.Running())
		}
		if len(sched.lastJob) != 0 {
			t.Errorf("shards=%d: lastJob retains %d entries after drain: %v", shards, len(sched.lastJob), sched.lastJob)
		}
		if len(sched.classOf) != 0 || heldSolutions(sched) != 0 {
			t.Errorf("shards=%d: the class table still names %d jobs and holds %d sub-solutions after drain",
				shards, len(sched.classOf), heldSolutions(sched))
		}
		if len(sched.exprCache) != 0 {
			t.Errorf("shards=%d: expression cache retains %d entries after drain", shards, len(sched.exprCache))
		}
	}
}

// TestCompileCacheSteadyStateSkips pins the front end on the canonical steady
// scenario: after the first cycle generates and compiles cold, every later
// cycle serves both jobs' requests from the expression cache and keeps both
// classes, so the steady-state front end does zero generate/compile work. The
// first change — a new arrival — recompiles the class it lands in and nothing
// else, and the untouched jobs' cached expressions keep their hits.
func TestCompileCacheSteadyStateSkips(t *testing.T) {
	sched := steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0})
	const cycles = 10
	for i := 0; i < cycles; i++ {
		sched.Cycle(int64(i)*4, bitset.New(8))
	}
	if sched.Stats.ExprMisses != 2 || sched.Stats.ExprHits != 2*(cycles-1) {
		t.Errorf("expression cache hits=%d misses=%d, want %d/2 (both jobs generated once, then cached)",
			sched.Stats.ExprHits, sched.Stats.ExprMisses, 2*(cycles-1))
	}
	if sched.Stats.CompileJobs != 2 || sched.Stats.CompileSkips != 2*(cycles-1) {
		t.Errorf("compile cache skips=%d jobs=%d, want %d/2 (one cold compile a class, then kept)",
			sched.Stats.CompileSkips, sched.Stats.CompileJobs, 2*(cycles-1))
	}
	if len(sched.classes) != 2 || len(sched.exprCache) != 2 {
		t.Errorf("cache state: %d classes, %d cached expressions; want two one-job classes",
			len(sched.classes), len(sched.exprCache))
	}
	if sched.Stats.GenerateNS <= 0 || sched.Stats.CompileNS <= 0 {
		t.Errorf("front-end timers GenerateNS=%d CompileNS=%d must accrue", sched.Stats.GenerateNS, sched.Stats.CompileNS)
	}

	// A new arrival changes block 0's class, which must be compiled again (no
	// stale model may ever be solved); block 1's is kept, and the two untouched
	// jobs still hit the expression cache.
	skips, hits := sched.Stats.CompileSkips, sched.Stats.ExprHits
	sched.Submit(int64(cycles)*4, &workload.Job{
		ID: 2, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: int64(cycles) * 4,
		K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 300, DataNodes: []int{0, 1, 2, 3},
	})
	sched.Cycle(int64(cycles)*4, bitset.New(8))
	if sched.Stats.CompileSkips != skips+1 {
		t.Errorf("arrival cycle kept %d jobs' classes, want 1 (the other block's)", sched.Stats.CompileSkips-skips)
	}
	if got := sched.Stats.ExprHits - hits; got != 2 {
		t.Errorf("untouched jobs recorded %d expression hits after the arrival, want 2", got)
	}
	if sched.Stats.CompileJobs != 2+2 {
		t.Errorf("CompileJobs = %d after the arrival cycle, want 4 (2 cold + the arrival's class of 2)", sched.Stats.CompileJobs)
	}
}

// TestCompileCacheKillSwitchInert pins DisableCompileCache (and the Greedy
// variant, which has no cycle-level batch): all three cross-cycle layers must
// be fully inert — no expression hits, no compile skips, no replays or
// misses, no cache state and no kept sub-solution — while the timers, which
// are plain work meters, keep running.
func TestCompileCacheKillSwitchInert(t *testing.T) {
	for _, cfg := range []Config{
		{CyclePeriod: 4, PlanAhead: 16, Gap: 0, DisableCompileCache: true},
		{CyclePeriod: 4, PlanAhead: 16, Gap: 0, Greedy: true},
	} {
		sched := steadyScheduler(cfg)
		for i := 0; i < 5; i++ {
			sched.Cycle(int64(i)*4, bitset.New(8))
		}
		if st := sched.Stats; st.ExprHits != 0 || st.ExprMisses != 0 || st.CompileSkips != 0 || st.ReuseHits != 0 || st.ReuseMisses != 0 {
			t.Errorf("%s (DisableCompileCache=%v): cache counters moved (exprHits=%d exprMisses=%d skips=%d reuseHits=%d reuseMisses=%d); kill switch must make the caches inert",
				cfg.Name(), cfg.DisableCompileCache, st.ExprHits, st.ExprMisses, st.CompileSkips, st.ReuseHits, st.ReuseMisses)
		}
		if n := heldSolutions(sched); n != 0 {
			t.Errorf("%s (DisableCompileCache=%v): %d sub-solutions kept despite the kill switch", cfg.Name(), cfg.DisableCompileCache, n)
		}
		if sched.exprCache != nil {
			t.Errorf("%s (DisableCompileCache=%v): cache state allocated despite the kill switch", cfg.Name(), cfg.DisableCompileCache)
		}
		if sched.Stats.GenerateNS <= 0 || sched.Stats.CompileNS <= 0 {
			t.Errorf("%s: front-end timers stopped with the cache off (generate=%d compile=%d); they meter work, not cache behavior",
				cfg.Name(), sched.Stats.GenerateNS, sched.Stats.CompileNS)
		}
	}
	if sched := steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0, DisableCompileCache: true}); sched.Stats.CompileSkipRate() != 0 {
		t.Error("CompileSkipRate must be 0 before any cycle")
	}
	// The enabled steady run must actually skip, so the inert runs above are a
	// meaningful contrast (kill-switch honesty cuts both ways).
	sched := steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0})
	for i := 0; i < 5; i++ {
		sched.Cycle(int64(i)*4, bitset.New(8))
	}
	if sched.Stats.CompileSkips == 0 || sched.Stats.ExprHits == 0 || sched.Stats.ReuseHits == 0 {
		t.Error("enabled steady-state run recorded no cache activity; the kill-switch contrast proves nothing")
	}
	if r := sched.Stats.CompileSkipRate(); r <= 0 || r >= 1 {
		t.Errorf("CompileSkipRate = %v on the steady run, want strictly between 0 (cold cycle) and 1", r)
	}
}

// TestExpressionCacheDeadlineExpiry pins cache-on/cache-off agreement across
// an expression-cache expiry: an SLO job whose deadline approaches loses
// start options cycle by cycle and is eventually dropped, and the cached run
// must drop it on exactly the same cycle with exactly the same intermediate
// behavior as the uncached run. The cluster is fully blocked so the job can
// never launch and the only observable events are deferrals and the drop.
func TestExpressionCacheDeadlineExpiry(t *testing.T) {
	run := func(disable bool) (dropCycle int, sched *Scheduler) {
		sched = steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0, DisableCompileCache: disable})
		// A third SLO job with a deadline tight enough to expire mid-run:
		// options shrink as now advances and vanish entirely once even an
		// immediate start cannot meet the deadline.
		sched.Submit(0, &workload.Job{
			ID: 7, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: 0,
			K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 60, DataNodes: []int{0, 1, 2, 3},
		})
		dropCycle = -1
		for i := 0; i < 12; i++ {
			res := sched.Cycle(int64(i)*4, bitset.New(8))
			for _, d := range res.Dropped {
				if d.ID == 7 && dropCycle < 0 {
					dropCycle = i
				}
			}
		}
		return dropCycle, sched
	}
	onDrop, onSched := run(false)
	offDrop, _ := run(true)
	if onDrop != offDrop {
		t.Errorf("cache-on dropped the expiring job at cycle %d, cache-off at cycle %d; expiry must be policy-invariant", onDrop, offDrop)
	}
	if onDrop < 0 {
		t.Fatal("expiring job was never dropped; the scenario exercised nothing")
	}
	if _, ok := onSched.exprCache[7]; ok {
		t.Error("dropped job still has an expression-cache entry; terminal events must purge")
	}
}

// assertTableLive fails when the class table holds a Compiled, or a component,
// that its Scratch has since compiled over.
func assertTableLive(t *testing.T, sched *Scheduler, when string) {
	t.Helper()
	for k, cl := range sched.classes {
		if cl.comp.Stale() {
			t.Fatalf("%s: class %d holds a stale Compiled", when, k)
		}
		for i, cc := range cl.comps {
			if cc.Stale() {
				t.Fatalf("%s: class %d holds stale component %d", when, k, i)
			}
		}
	}
}

// heldSolutions counts the sub-solutions the class table could replay.
func heldSolutions(sched *Scheduler) int {
	n := 0
	for _, cl := range sched.classes {
		for i := range cl.ents {
			if cl.ents[i].sol != nil {
				n++
			}
		}
	}
	return n
}

// TestCompileErrorDropsBatchCache: a cycle whose compile fails must leave no
// entry for the class that failed — nor, the cycle having decided nothing, for
// any other — so when the old batch comes back the next cycle has to compile
// it again, not replay the table.
func TestCompileErrorDropsBatchCache(t *testing.T) {
	sched := steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0})
	for i := 0; i < 3; i++ {
		sched.Cycle(int64(i)*4, bitset.New(8))
	}
	if len(sched.classes) != 2 || sched.Stats.CompileSkips == 0 {
		t.Fatal("the steady cycles did not keep their classes")
	}
	// Plant an expression strl.Validate rejects (an empty MAX) as job 0's
	// cached request: the batch changes, and compiling it fails.
	good := sched.exprCache[0].req
	sched.exprCache[0].req = &strlgen.Request{Job: good.Job, Expr: &strl.Max{}, Nodes: good.Nodes}
	jobs, skips := sched.Stats.CompileJobs, sched.Stats.CompileSkips
	if res := sched.Cycle(12, bitset.New(8)); len(res.Decisions) != 0 {
		t.Fatalf("a cycle that could not compile decided %+v", res.Decisions)
	}
	if sched.Stats.CompileJobs != jobs || sched.Stats.CompileSkips != skips {
		t.Fatal("the planted expression did not fail the compile")
	}
	if len(sched.classes) != 0 || len(sched.classOf) != 0 {
		t.Errorf("a failed compile left %d classes naming %d jobs in the table", len(sched.classes), len(sched.classOf))
	}
	// The old requests return, pointer for pointer.
	sched.exprCache[0].req = good
	sched.Cycle(16, bitset.New(8))
	if sched.Stats.CompileSkips != skips || sched.Stats.CompileJobs != jobs+2 {
		t.Errorf("after the failed compile: skips %d -> %d, compiled jobs %d -> %d; the batch must be compiled again",
			skips, sched.Stats.CompileSkips, jobs, sched.Stats.CompileJobs)
	}
	if len(sched.classes) != 2 {
		t.Error("the recompiled classes were not entered in the table")
	}
	assertTableLive(t, sched, "after the recompile")
}

// TestCycleNeverHoldsStaleCompiled runs a busy little cluster — arrivals,
// launches (each marks its class mid-cycle through markJobDirty, while the
// cycle still reads the Compiled), completions — monolithic, sharded and
// greedy. Every cycle ends in mustBeLive, which panics if a Compiled it solved
// and decoded was compiled over; between cycles the table must never point at
// dead memory.
func TestCycleNeverHoldsStaleCompiled(t *testing.T) {
	for _, cfg := range []Config{
		{CyclePeriod: 4, PlanAhead: 16},
		{CyclePeriod: 4, PlanAhead: 16, Shards: 4},
		{CyclePeriod: 4, PlanAhead: 16, Greedy: true},
	} {
		b := cluster.NewBuilder()
		for _, r := range []string{"r0", "r1", "r2", "r3"} {
			b.AddRack(r, 4, nil)
		}
		c := b.Build()
		sched := New(c, cfg)
		free := bitset.New(c.N())
		free.Fill()
		type running struct {
			d   sim.Decision
			end int64
		}
		var run []running
		launched, purged, cached := 0, 0, 0
		for cycle := 0; cycle < 20; cycle++ {
			now := int64(cycle) * 4
			keep := run[:0]
			for _, r := range run {
				if r.end > now {
					keep = append(keep, r)
					continue
				}
				sched.JobFinished(now, r.d.Job)
				for _, n := range r.d.Nodes {
					free.Add(n)
				}
			}
			run = keep
			if cycle < 10 {
				for i := 0; i < 2; i++ {
					id := 2*cycle + i
					sched.Submit(now, be(id, 3+id%4, int64(8+4*(id%3))))
				}
			}
			res := sched.Cycle(now, free.Clone())
			for _, d := range res.Decisions {
				for _, n := range d.Nodes {
					free.Remove(n)
				}
				run = append(run, running{d, now + d.Job.BaseRuntime})
			}
			launched += len(res.Decisions)
			assertTableLive(t, sched, cfg.Name())
			marked := false
			for _, cl := range sched.classes {
				marked = marked || cl.named != len(cl.reqs)
			}
			switch {
			case len(sched.classes) > 0 && !marked:
				cached++
			case len(res.Decisions) > 0 && marked:
				purged++
			}
		}
		if launched != 20 {
			t.Errorf("%s: launched %d of 20 jobs", cfg.Name(), launched)
		}
		if sched.feEnabled() && (purged == 0 || cached == 0) {
			t.Errorf("%s: %d cycles marked a class mid-cycle and %d left the table clean; the scenario needs both", cfg.Name(), purged, cached)
		}
	}
}

// wholeBatchPrints recompiles the batch of the cycle sched just ran the way the
// scheduler did before it had classes — one model over every node, decomposed
// along its rows — and returns the sorted component fingerprints of that and
// of the table's classes. Fingerprints leave out names and renumber partition
// groups by first appearance, so equal multisets mean the same sub-models, the
// same rounding state, hence the same solves.
func wholeBatchPrints(t *testing.T, sched *Scheduler) (whole, classed []uint64) {
	t.Helper()
	n := 0
	for _, cl := range sched.classes {
		n += len(cl.reqs)
	}
	exprs := make([]strl.Expr, n)
	for _, cl := range sched.classes {
		for i, bi := range cl.idx {
			exprs[bi] = cl.reqs[i].Expr
		}
		for _, cc := range cl.comps {
			classed = append(classed, cl.comp.ComponentFingerprint(cc))
		}
	}
	comp, err := compiler.Compile(exprs, compiler.Options{
		Universe: sched.c.N(), Horizon: sched.horizon(), ReleaseAt: slices.Clone(sched.rel),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range comp.Components() {
		whole = append(whole, comp.ComponentFingerprint(cc))
	}
	slices.Sort(whole)
	slices.Sort(classed)
	return whole, classed
}

// batchChecker is a scheduler that checks, after every cycle that planned
// anything, that its classes compiled alone are the whole batch's components.
type batchChecker struct {
	*Scheduler
	t                      *testing.T
	cycles, classes, comps int
	multi                  int // cycles with more than one class
}

func (b *batchChecker) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	before := b.Scheduler.cycle
	res := b.Scheduler.Cycle(now, free)
	if b.Scheduler.cycle == before || len(b.Scheduler.classes) == 0 {
		return res
	}
	whole, classed := wholeBatchPrints(b.t, b.Scheduler)
	if !slices.Equal(whole, classed) {
		b.t.Fatalf("t=%d: %d classes give component fingerprints\n%x\nthe whole batch\n%x", now, len(b.Scheduler.classes), classed, whole)
	}
	b.cycles++
	b.classes += len(b.Scheduler.classes)
	b.comps += len(whole)
	if len(b.Scheduler.classes) > 1 {
		b.multi++
	}
	return res
}

// TestClassCompileMatchesBatch: over random mixed workloads (the parity
// harnesses' kind: small heterogeneous clusters, every job type, estimate
// error, failures, truncation), the resident construction under churn and the
// paper's GS HET and GS MIX traffic, compiling each coupling class alone
// against its own nodes gives the same multiset of component fingerprints as
// compiling the whole batch over the whole cluster.
func TestClassCompileMatchesBatch(t *testing.T) {
	total := &batchChecker{}
	run := func(name string, c *cluster.Cluster, jobs []*workload.Job, cfg Config, failures []sim.NodeFailure) {
		b := &batchChecker{Scheduler: New(c, cfg), t: t}
		if _, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: b, Failures: failures}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.cycles == 0 {
			t.Fatalf("%s: no cycle planned anything", name)
		}
		total.cycles, total.classes, total.comps, total.multi = total.cycles+b.cycles, total.classes+b.classes, total.comps+b.comps, total.multi+b.multi
	}
	for seed := int64(0); seed < 40; seed++ {
		c, jobs, cfg, failures := randomClassInstance(seed)
		run(fmt.Sprintf("random %d", seed), c, jobs, cfg, failures)
	}
	if total.multi == 0 {
		t.Error("no random instance ever had two classes in a cycle")
	}
	for _, mix := range []workload.Mix{workload.GSHET(30), workload.GSMIX(30)} {
		c := cluster.RC80(true)
		jobs, err := workload.Generate(mix, c, 5)
		if err != nil {
			t.Fatal(err)
		}
		run(mix.Name, c, jobs, Config{PlanAhead: 48, MaxBatch: 12}, nil)
	}

	// The resident construction: eight blocks, an arrival on a rotating block
	// two cycles in three, each living a few cycles.
	sched, free := residentScheduler(8)
	b := &batchChecker{Scheduler: sched, t: t}
	for k, now := 0, int64(4); k < 24; k, now = k+1, now+4 {
		if k%3 != 2 {
			sched.Submit(now, &workload.Job{ID: 1000 + k, Class: workload.SLO, Reserved: true,
				Type: workload.DataLocal, Submit: now, K: 2, BaseRuntime: 4, Slowdown: 40,
				Deadline: now + 10, DataNodes: residentBlock(k % 8)})
		}
		b.Cycle(now, free)
		if len(sched.classes) != 8 {
			t.Fatalf("resident cycle %d: %d classes, want one a block", k, len(sched.classes))
		}
	}
	if b.comps <= b.classes {
		t.Errorf("resident: %d components in %d classes; an arrival should sometimes be a component of its own", b.comps, b.classes)
	}
	t.Logf("%d cycles, %d classes, %d components compared; %d cycles had several classes",
		total.cycles+b.cycles, total.classes+b.classes, total.comps+b.comps, total.multi+b.multi)
}

// randomClassInstance draws a small heterogeneous cluster and a mixed workload
// on it: every placement type (data-local jobs on short node ranges are what
// make several classes), deadlines tight and loose, estimate error, now and
// then a node failure or a MaxBatch that truncates.
func randomClassInstance(seed int64) (*cluster.Cluster, []*workload.Job, Config, []sim.NodeFailure) {
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
	jobs := make([]*workload.Job, 8+r.Intn(13))
	for id := range jobs {
		j := &workload.Job{
			ID: id, Class: workload.BestEffort, Type: workload.Type(r.Intn(5)),
			K: 1 + r.Intn(4), BaseRuntime: int64(4 * (1 + r.Intn(10))),
			Slowdown: float64(1 + r.Intn(3)), Submit: int64(4 * r.Intn(15)),
		}
		if seed%2 == 1 && id%4 != 0 {
			// Odd instances are mostly data-local: a batch of nothing else
			// falls into several classes.
			j.Type = workload.DataLocal
		}
		if j.Type == workload.Elastic {
			j.MinK = 1
		}
		if j.Type == workload.DataLocal {
			// A slowdown that makes the whole-cluster fallback worthless for
			// the SLO ones keeps the job on its own nodes.
			j.Slowdown = 10
			for n, lo := 0, r.Intn(nodes-j.K); n <= j.K && lo+n < nodes; n++ {
				j.DataNodes = append(j.DataNodes, lo+n)
			}
		}
		if r.Intn(10) < 6 || (seed%2 == 1 && j.Type == workload.DataLocal) {
			j.Class = workload.SLO
			j.Deadline = j.Submit + j.BaseRuntime*int64(2+r.Intn(4))
		}
		if r.Intn(4) == 0 {
			j.EstErr = float64(r.Intn(5)-2) / 4
		}
		jobs[id] = j
	}
	cfg := Config{CyclePeriod: 4, PlanAhead: int64(4 * (4 + r.Intn(9)))}
	_ = r.Intn(4) // a draw no field uses, kept so every later draw, and so every instance, stays the same
	if r.Intn(4) == 0 {
		cfg.MaxBatch = 3 + r.Intn(4)
	}
	var failures []sim.NodeFailure
	if r.Intn(4) == 0 {
		at := int64(4 * (2 + r.Intn(10)))
		failures = append(failures, sim.NodeFailure{Node: r.Intn(nodes), At: at, RecoverAt: at + 20})
	}
	return b.Build(), jobs, cfg, failures
}

// residentArrival is the scoreboard's churn arrival: a two-node data-local SLO
// job on block g with one live start choice, dropped a few cycles later.
func residentArrival(id, g int, now int64) *workload.Job {
	return &workload.Job{ID: id, Class: workload.SLO, Reserved: true, Type: workload.DataLocal,
		Submit: now, K: 2, BaseRuntime: 4, Slowdown: 40, Deadline: now + 10, DataNodes: residentBlock(g)}
}

// TestCleanClassDoesNoWork pins what a steady cycle costs: every class is
// kept and wants last cycle's options, so the cycle compiles nothing, builds no
// seed, solves nothing, starts no goroutine and allocates next to nothing; and a cycle with one arrival
// compiles the arrival's class and no other.
func TestCleanClassDoesNoWork(t *testing.T) {
	sched, free := residentScheduler(8)
	now := int64(4)
	cycle := func() {
		sched.Cycle(now, free)
		now += 4
	}
	for k := 0; k < 3; k++ { // cold, the shifted seed, the first replay
		cycle()
	}
	const cycles = 40
	// The warm-up's sub-solve goroutines are done with their WaitGroup but may
	// not have exited yet (under -race that takes a while): count once they have.
	goroutines := runtime.NumGoroutine()
	for wait := 0; wait < 100 && goroutines > 2; wait++ {
		time.Sleep(time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	before := sched.Stats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(cycles-1, cycle)
	runtime.ReadMemStats(&m1)
	d := sched.Stats
	if d.CompileJobs != before.CompileJobs || d.CompileSkips-before.CompileSkips != 72*cycles {
		t.Errorf("steady cycles compiled %d jobs and kept %d, want 0 and %d",
			d.CompileJobs-before.CompileJobs, d.CompileSkips-before.CompileSkips, 72*cycles)
	}
	if d.ReuseMisses != before.ReuseMisses || d.ReuseHits-before.ReuseHits != 8*cycles || d.Solves != before.Solves {
		t.Errorf("steady cycles: %d replays, %d misses, %d solves; want %d, 0, 0",
			d.ReuseHits-before.ReuseHits, d.ReuseMisses-before.ReuseMisses, d.Solves-before.Solves, 8*cycles)
	}
	if d.ExprMisses != before.ExprMisses {
		t.Errorf("steady cycles generated %d requests", d.ExprMisses-before.ExprMisses)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("goroutines %d -> %d over the steady cycles", goroutines, n)
	}
	// The parent commit's steady cycle made 269 allocations, 60 KB.
	if perCycle := (m1.TotalAlloc - m0.TotalAlloc) / cycles; allocs > 1 || perCycle > 1024 {
		t.Errorf("a steady cycle allocates %.1f times, %d bytes; want at most 1 and 1024", allocs, perCycle)
	}

	// One arrival, on block 3: its class alone is compiled again — the nine
	// residents and the newcomer — and the other seven are kept; likewise while
	// it lives (its latest start choice passes its deadline, so its request is
	// trimmed at a new revision) and in the cycle that drops it.
	before = sched.Stats
	sched.Submit(now, residentArrival(5000, 3, now))
	cycle()
	if c, k := sched.Stats.CompileJobs-before.CompileJobs, sched.Stats.CompileSkips-before.CompileSkips; c != 10 || k != 63 {
		t.Errorf("the arrival's cycle compiled %d jobs and kept %d, want 10 and 63", c, k)
	}
	for dropped := false; !dropped; {
		before = sched.Stats
		res := sched.Cycle(now, free)
		now += 4
		if dropped = len(res.Dropped) == 1; dropped {
			if c, k := sched.Stats.CompileJobs-before.CompileJobs, sched.Stats.CompileSkips-before.CompileSkips; c != 9 || k != 63 {
				t.Errorf("the drop's cycle compiled %d jobs and kept %d, want 9 and 63", c, k)
			}
		} else if c, k := sched.Stats.CompileJobs-before.CompileJobs, sched.Stats.CompileSkips-before.CompileSkips; (c != 0 && c != 10) || c+k != 73 {
			t.Errorf("a cycle between arrival and drop compiled %d jobs and kept %d", c, k)
		}
	}
}

// TestClassPurge: an event on one job invalidates exactly its class, and a
// release-slice move on one node exactly the classes whose nodes include it.
func TestClassPurge(t *testing.T) {
	sched, free := blockedResidents(4, 9, Config{CyclePeriod: 4, PlanAhead: 40, MaxBatch: 192})
	now := int64(4)
	// step runs one cycle and returns how many jobs it compiled and kept.
	step := func() (compiled, kept int) {
		before := sched.Stats
		sched.Cycle(now, free)
		now += 4
		return sched.Stats.CompileJobs - before.CompileJobs, sched.Stats.CompileSkips - before.CompileSkips
	}
	expect := func(what string, wantCompiled, wantKept int) {
		t.Helper()
		if c, k := step(); c != wantCompiled || k != wantKept {
			t.Errorf("%s: the next cycle compiled %d jobs and kept %d, want %d and %d", what, c, k, wantCompiled, wantKept)
		}
		assertTableLive(t, sched, what)
	}
	for k := 0; k < 3; k++ {
		step()
	}
	expect("steady", 0, 36)

	// The hook itself, on job 10 (block 1): the class loses the member and the
	// solution of the component naming it; nothing else in the table moves.
	cl := sched.classOf[10]
	if cl == nil || len(cl.reqs) != 9 || heldSolutions(sched) != 4 {
		t.Fatalf("setup: job 10's class %+v, %d solutions held", cl, heldSolutions(sched))
	}
	sched.markJobDirty(10)
	if sched.classOf[10] != nil || cl.named != 8 || heldSolutions(sched) != 3 || len(sched.exprCache) != 35 {
		t.Errorf("markJobDirty(10): classOf %v, %d members named, %d solutions held, %d expressions cached",
			sched.classOf[10], cl.named, heldSolutions(sched), len(sched.exprCache))
	}
	for _, other := range sched.classes {
		if other != cl && (other.named != 9 || !other.solved()) {
			t.Errorf("markJobDirty(10) touched the class of job %d", other.reqs[0].Job.ID)
		}
	}
	expect("a marked job", 9, 27)

	// From here on block 1 churns and the other three classes must be kept
	// through all of it. others runs a cycle and checks that; it returns the
	// cycle's result and how many jobs it compiled, all of them block 1's.
	others := func(what string) (sim.CycleResult, int) {
		t.Helper()
		before := sched.Stats
		res := sched.Cycle(now, free)
		now += 4
		c, k := sched.Stats.CompileJobs-before.CompileJobs, sched.Stats.CompileSkips-before.CompileSkips
		block1 := 0
		for _, j := range sched.pending {
			if j.ID >= 9 && j.ID < 18 {
				block1++
			}
		}
		if k != 27 && !(c == 0 && k == 27+block1+len(res.Decisions)) {
			t.Errorf("%s: the next cycle compiled %d jobs and kept %d; the other three classes are 27", what, c, k)
		}
		if c != 0 && c != block1+len(res.Decisions) {
			t.Errorf("%s: the next cycle compiled %d jobs, block 1 has %d", what, c, block1+len(res.Decisions))
		}
		assertTableLive(t, sched, what)
		return res, c
	}

	// Finish: block 1's blocker ends, which moves the release slices of rack
	// 1 — block 1's nodes and no other class's — and its data nodes come free.
	sched.JobFinished(now, sched.running[901].job)
	for n := 32; n < 40; n++ {
		free.Add(n)
	}
	res, compiled := others("a finish")
	if compiled != 9 || len(res.Decisions) == 0 {
		t.Fatalf("the cycle after the blocker finished compiled %d jobs and launched %d", compiled, len(res.Decisions))
	}
	// Launch: the launched residents leave block 1's class.
	launched := res.Decisions[0].Job
	for len(res.Decisions) > 0 {
		for _, d := range res.Decisions {
			for _, n := range d.Nodes {
				free.Remove(n)
			}
		}
		if res, compiled = others("a launch"); compiled == 0 {
			t.Error("the cycle after a launch kept block 1's class")
		}
	}
	// The launched jobs' release slices count down until they overrun.
	for k := 0; compiled != 0; k++ {
		if _, compiled = others("a countdown"); k > 12 {
			t.Fatal("block 1 never settled")
		}
	}
	// Finish of a launched job, then its resubmission (a failure restart).
	sched.JobFinished(now, launched)
	if _, compiled = others("a second finish"); compiled == 0 {
		t.Error("the cycle after a launched job finished kept block 1's class")
	}
	sched.Submit(now, launched)
	if _, compiled = others("a resubmit"); compiled == 0 {
		t.Error("the cycle after a resubmit kept block 1's class")
	}
	for k := 0; compiled != 0; k++ {
		if _, compiled = others("settling"); k > 12 {
			t.Fatal("block 1 never settled")
		}
	}

	// A release-slice move with no job event: node 200 is nobody's, node 70 is
	// block 2's (taken out of its blocker's hands here: two running jobs on one
	// node have no defined release slice).
	stranger := &workload.Job{ID: 777, Class: workload.BestEffort, Type: workload.Unconstrained, K: 1, BaseRuntime: 400, Slowdown: 1}
	sched.running[777] = &runInfo{job: stranger, nodes: []int{200}, estEnd: now + 400}
	if _, compiled = others("a release move on an unclaimed node"); compiled != 0 {
		t.Errorf("a release move on a node no class holds compiled %d jobs", compiled)
	}
	before := sched.Stats
	sched.running[902].nodes = slices.DeleteFunc(sched.running[902].nodes, func(n int) bool { return n == 70 })
	sched.running[777].nodes = []int{70}
	sched.Cycle(now, free)
	if c := sched.Stats.CompileJobs - before.CompileJobs; c != 9 || sched.classOf[18].seen != sched.cycle || len(sched.classOf[18].reqs) != 9 {
		t.Errorf("a release move on block 2 compiled %d jobs, want block 2's nine", c)
	}
}

// blockedResidents is residentScheduler with each rack's blocker placed by
// hand on its own rack (the real thing launches them wherever the shuffle
// says), so a test can end one and know whose nodes move: racks 0..blocks-1
// are held by jobs 900+g that overrun forever, and perBlock data-local SLO
// residents 9g..9g+perBlock-1 wait on the first eight nodes of rack g.
func blockedResidents(blocks, perBlock int, cfg Config) (*Scheduler, *bitset.Set) {
	c := cluster.RC256(false)
	sched := New(c, cfg)
	for g := 0; g < blocks; g++ {
		blocker := &workload.Job{ID: 900 + g, Class: workload.BestEffort, Type: workload.Unconstrained, K: 32, BaseRuntime: 4, Slowdown: 1}
		nodes := make([]int, 32)
		for i := range nodes {
			nodes[i] = g*32 + i
		}
		sched.running[blocker.ID] = &runInfo{job: blocker, nodes: nodes}
		for i, k := range []int{2, 3, 5, 7, 2, 3, 5, 7, 2}[:perBlock] {
			sched.Submit(4, &workload.Job{ID: 9*g + i, Class: workload.SLO, Reserved: true, Type: workload.DataLocal,
				Submit: 4, K: k, BaseRuntime: 12, Slowdown: 40, Deadline: 390, DataNodes: residentBlock(g)})
		}
	}
	return sched, bitset.New(c.N())
}

// TestClassTableShrinksAfterSpike: what a backlog spike leaves behind is
// bounded by what is live — classes the batch no longer has leave the table,
// and no more of them than there are live classes are kept for their memory.
func TestClassTableShrinksAfterSpike(t *testing.T) {
	sched, free := residentScheduler(1)
	// Seven more blocks whose residents' deadlines pass after a few cycles.
	for g := 1; g < 8; g++ {
		for i, k := range [...]int{2, 3, 5} {
			sched.Submit(4, &workload.Job{ID: 9*g + i, Class: workload.SLO, Reserved: true, Type: workload.DataLocal,
				Submit: 4, K: k, BaseRuntime: 12, Slowdown: 40, Deadline: 40, DataNodes: residentBlock(g)})
		}
	}
	now := int64(4)
	for k := 0; k < 3; k, now = k+1, now+4 {
		sched.Cycle(now, free)
	}
	if len(sched.classes) != 8 || len(sched.classOf) != 30 {
		t.Fatalf("setup: %d classes naming %d jobs", len(sched.classes), len(sched.classOf))
	}
	dropped := 0
	for ; now <= 44; now += 4 {
		dropped += len(sched.Cycle(now, free).Dropped)
	}
	if dropped != 21 {
		t.Fatalf("dropped %d jobs, want 21", dropped)
	}
	if len(sched.classes) != 1 || len(sched.classOf) != 9 || len(sched.spare) > 1 {
		t.Errorf("after the spike: %d classes naming %d jobs, %d spares; want 1, 9 and at most 1",
			len(sched.classes), len(sched.classOf), len(sched.spare))
	}
	hits := sched.Stats.ReuseHits
	sched.Cycle(now, free)
	if sched.Stats.ReuseHits != hits+1 {
		t.Error("the surviving class stopped replaying")
	}
}

// TestClassSolvesConcurrently drives cycles in which several classes are dirty
// at once, so their components are solved on goroutines of their own, next to
// classes that replay; under the race detector this is the check that a
// class's Scratch, entries and grants are touched by one goroutine at a time.
// The plan must not depend on how the goroutines were scheduled: two runs
// plan alike.
func TestClassSolvesConcurrently(t *testing.T) {
	run := func() (deferred []planChoice, st SolveStats) {
		sched, free := blockedResidents(8, 6, Config{CyclePeriod: 4, PlanAhead: 40, MaxBatch: 192})
		for k, now := 0, int64(4); k < 16; k, now = k+1, now+4 {
			// An arrival a cycle, each living three: three blocks hold one at
			// any time, two more are settling, the rest replay.
			sched.Submit(now, residentArrival(1000+k, k%8, now))
			sched.Cycle(now, free)
		}
		for id := 0; id < 72; id++ {
			deferred = append(deferred, sched.lastJob[id])
		}
		return deferred, sched.Stats
	}
	first, st1 := run()
	second, st2 := run()
	if !slices.Equal(first, second) {
		t.Errorf("the residents' plan differs between two runs:\n%v\n%v", first, second)
	}
	if st1.ReuseHits == 0 || st1.ReuseMisses < 24 || st2.ReuseHits != st1.ReuseHits || st2.ReuseMisses != st1.ReuseMisses {
		t.Errorf("%d replays and %d solves, then %d and %d; want both kinds every cycle, and the same counts twice",
			st1.ReuseHits, st1.ReuseMisses, st2.ReuseHits, st2.ReuseMisses)
	}
}

// TestClassHoldsSeesReprice: re-pricing changes a request's leaf values in
// place, so the pointer a class keeps still matches; the revision beside it
// does not. The class of a re-priced member is compiled again, and the class
// next to it, whose members nobody touched, is kept.
func TestClassHoldsSeesReprice(t *testing.T) {
	sched, _ := residentScheduler(2)
	now := int64(4)
	var reqs []*strlgen.Request
	for _, j := range sched.orderedPending() {
		reqs = append(reqs, sched.gen.Generate(now, j))
	}
	classify := func() (compiled, kept int) {
		before := sched.Stats
		if _, err := sched.classify(reqs, sched.releaseSlices(now)); err != nil {
			t.Fatal(err)
		}
		return sched.Stats.CompileJobs - before.CompileJobs, sched.Stats.CompileSkips - before.CompileSkips
	}
	if c, k := classify(); c != 18 || k != 0 {
		t.Fatalf("the first classification compiled %d jobs and kept %d, want 18 and 0", c, k)
	}
	if c, k := classify(); c != 0 || k != 18 {
		t.Fatalf("the same requests again: compiled %d jobs and kept %d, want 0 and 18", c, k)
	}
	member := reqs[11] // the third resident of the second block
	value := member.Options[0].Leaf.Value
	if _, ok := sched.gen.Reprice(now+4, member); !ok || member.Options[0].Leaf.Value != value {
		t.Fatalf("re-pricing a resident one cycle on: ok %v, value %v -> %v; want the same request at the next revision", ok, value, member.Options[0].Leaf.Value)
	}
	if c, k := classify(); c != 9 || k != 9 {
		t.Errorf("after re-pricing one member: compiled %d jobs and kept %d, want its block's 9 and the other's 9", c, k)
	}
	if c, k := classify(); c != 0 || k != 18 {
		t.Errorf("and once more, nothing re-priced: compiled %d jobs and kept %d, want 0 and 18", c, k)
	}
}

// TestTrimmedRequestKeepsPointer: an SLO arrival offers two starts; a cycle
// later the latest one passes its deadline and its request is trimmed in place
// — the same pointer at the next revision, so its class is compiled again — and
// a cycle after that the last one does, and the job is dropped. The request is
// generated once; regenerating on every change of shape generated it three
// times.
func TestTrimmedRequestKeepsPointer(t *testing.T) {
	sched, free := residentScheduler(1)
	now := int64(4)
	cycle := func() (res sim.CycleResult, compiled int) {
		before := sched.Stats.CompileJobs
		res = sched.Cycle(now, free)
		now += 4
		return res, sched.Stats.CompileJobs - before
	}
	for k := 0; k < 3; k++ {
		cycle()
	}
	misses := sched.Stats.ExprMisses
	sched.Submit(now, residentArrival(5000, 0, now))
	if _, c := cycle(); c != 10 {
		t.Fatalf("the arrival's cycle compiled %d jobs, want its class's 10", c)
	}
	ent := sched.exprCache[5000]
	if ent == nil || len(ent.req.Options) != 2 {
		t.Fatalf("setup: the arrival's cached request %+v, want two start options", ent)
	}
	req, rev := ent.req, ent.req.Rev
	if _, c := cycle(); c != 10 || sched.exprCache[5000] == nil || sched.exprCache[5000].req != req ||
		req.Rev == rev || len(req.Options) != 1 || req.Expr != strl.Expr(&req.Options[0].Leaf) {
		t.Errorf("a start past its deadline: %d jobs compiled, request %p -> %p at revision %d -> %d with %d options; want 10 compiled and the same request, trimmed to its lone leaf at a new revision",
			c, req, sched.exprCache[5000].req, rev, req.Rev, len(req.Options))
	}
	res, c := cycle()
	if len(res.Dropped) != 1 || res.Dropped[0].ID != 5000 || c != 9 || sched.exprCache[5000] != nil {
		t.Errorf("the last start past its deadline: dropped %v, %d jobs compiled, entry %v; want the arrival dropped, 9 compiled and no entry",
			res.Dropped, c, sched.exprCache[5000])
	}
	if d := sched.Stats.ExprMisses - misses; d != 1 {
		t.Errorf("the arrival's request was generated %d times, want once", d)
	}
}

// decayingScheduler is a blocked RC256 (residentScheduler's blockers) with
// nJobs best-effort jobs of every placement type waiting behind them: their
// values decay every cycle, they couple through the whole-cluster fallback
// into one class, and nothing ever launches — the paper's traffic in
// miniature, one class rebuilt around re-priced members cycle after cycle.
func decayingScheduler(nJobs int, cfg Config) (*Scheduler, *bitset.Set) {
	c := cluster.RC256(false)
	cfg.CyclePeriod, cfg.PlanAhead, cfg.BEDecay = 4, 96, 1<<20
	sched := New(c, cfg)
	for g := 0; g < 8; g++ {
		sched.Submit(0, &workload.Job{ID: 900 + g, Class: workload.BestEffort,
			Type: workload.Unconstrained, Submit: 0, K: 32, BaseRuntime: 4, Slowdown: 1})
	}
	sched.Cycle(0, c.All())
	for id := 0; id < nJobs; id++ {
		sched.Submit(4, &workload.Job{ID: id, Class: workload.BestEffort, Type: workload.Type(id % 3),
			Submit: 4, K: 2 + id%5, BaseRuntime: int64(8 + 4*(id%4)), Slowdown: 1.5})
	}
	return sched, bitset.New(c.N())
}

// TestRebuiltClassAllocs pins what a cycle costs that can skip nothing: every
// member re-priced, the class compiled and solved again. Requests are
// re-priced where they are, and the partition, the model and the solution's
// values live in memory the class already has; what is left is the handful of
// headers (Compiled, Components) a cycle makes. Before PR 21 the cycle here made 138
// allocations, 44 KB; PR 21 made it 17, 2 KB; since PR 25 the solve chain's
// headers are the workspace's and the Solutions are the class's and the
// scheduler's: 11, 0.8 KB.
func TestRebuiltClassAllocs(t *testing.T) {
	sched, free := decayingScheduler(8, Config{})
	now := int64(4)
	cycle := func() {
		if res := sched.Cycle(now, free); len(res.Decisions)+len(res.Dropped) != 0 {
			t.Fatalf("the blocked cluster launched or dropped something: %+v", res)
		}
		now += 4
	}
	for k := 0; k < 4; k++ { // the slabs grow to the class's size
		cycle()
	}
	const cycles = 20
	before := sched.Stats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(cycles-1, cycle)
	runtime.ReadMemStats(&m1)
	d := sched.Stats
	if d.ExprMisses != before.ExprMisses || d.ExprHits-before.ExprHits != 8*cycles {
		t.Errorf("%d requests generated and %d served from the cache, want 0 and %d re-priced",
			d.ExprMisses-before.ExprMisses, d.ExprHits-before.ExprHits, 8*cycles)
	}
	if d.CompileSkips != before.CompileSkips || d.CompileJobs-before.CompileJobs != 8*cycles || d.Solves-before.Solves != cycles {
		t.Errorf("%d jobs kept, %d compiled, %d solves; want 0, %d and %d: the class is rebuilt every cycle",
			d.CompileSkips-before.CompileSkips, d.CompileJobs-before.CompileJobs, d.Solves-before.Solves, 8*cycles, cycles)
	}
	if d.ReuseHits != before.ReuseHits || d.ReuseMisses-before.ReuseMisses != cycles {
		t.Errorf("%d replays and %d misses, want 0 and %d", d.ReuseHits-before.ReuseHits, d.ReuseMisses-before.ReuseMisses, cycles)
	}
	perCycle := (m1.TotalAlloc - m0.TotalAlloc) / cycles
	t.Logf("a rebuilt cycle allocates %.0f times, %d bytes", allocs, perCycle)
	if allocs > 15 || perCycle > 1<<10 {
		t.Errorf("a rebuilt cycle allocates %.0f times, %d bytes; want at most 15 and 1 KB", allocs, perCycle)
	}
}

// TestShardedCycleAllocs pins the bytes of a rebuilt 4-shard cycle: the batch
// of TestRebuiltClassAllocs, cut into a sub-solve per shard planner. Each
// sub-solve used to allocate its presolve, reduced model, LP and three
// Solutions (the search's, the lifted one, the merge): 229 allocations, 31 KB
// a cycle of 24 sub-solves here. Since PR 25 a sub-solve on a grown workspace
// allocates no header of its own, and what is left (108, 8.4 KB) is the
// Compiled, its Components and SolveEach's bookkeeping.
func TestShardedCycleAllocs(t *testing.T) {
	sched, free := decayingScheduler(24, Config{Shards: 4})
	now := int64(4)
	cycle := func() {
		if res := sched.Cycle(now, free); len(res.Decisions)+len(res.Dropped) != 0 {
			t.Fatalf("the blocked cluster launched or dropped something: %+v", res)
		}
		now += 4
	}
	for k := 0; k < 4; k++ { // the slabs grow to the class's size
		cycle()
	}
	const cycles = 20
	before := sched.Stats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(cycles-1, cycle)
	runtime.ReadMemStats(&m1)
	solves := sched.Stats.Components - before.Components
	if solves < 3*cycles {
		t.Fatalf("%d sub-solves in %d cycles; the batch is meant to be cut into a part per shard", solves, cycles)
	}
	perCycle := (m1.TotalAlloc - m0.TotalAlloc) / cycles
	t.Logf("a rebuilt 4-shard cycle of %d sub-solves allocates %.0f times, %d bytes", solves/cycles, allocs, perCycle)
	if perCycle > 10<<10 {
		t.Errorf("a rebuilt 4-shard cycle allocates %d bytes; want at most 10 KB", perCycle)
	}
}
