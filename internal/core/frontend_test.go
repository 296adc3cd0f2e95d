package core

import (
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/sim"
	"tetrisched/internal/strl"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/workload"
)

// TestCompileCacheSteadyStateSkips pins the front-end tentpole on the
// canonical steady scenario: after the first cycle generates and compiles
// cold, every later cycle serves both jobs' requests from the expression
// cache and reuses the whole compiled batch verbatim, so the steady-state
// front end does zero generate/compile work. The first change — a new
// arrival — falls back to a fresh compile while the untouched jobs' cached
// expressions keep their hits.
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
		t.Errorf("compile cache skips=%d jobs=%d, want %d/2 (one cold compile, then whole-batch reuse)",
			sched.Stats.CompileSkips, sched.Stats.CompileJobs, 2*(cycles-1))
	}
	if !sched.fe.valid || len(sched.exprCache) != 2 {
		t.Errorf("cache state fe.valid=%v exprCache=%d entries, want a live batch cache over 2 jobs",
			sched.fe.valid, len(sched.exprCache))
	}
	if sched.Stats.GenerateNS <= 0 || sched.Stats.CompileNS <= 0 {
		t.Errorf("front-end timers GenerateNS=%d CompileNS=%d must accrue", sched.Stats.GenerateNS, sched.Stats.CompileNS)
	}

	// A new arrival changes the batch: the whole-batch cache must miss (no
	// stale model may ever be solved), while the two untouched jobs still hit
	// the expression cache.
	skips, hits := sched.Stats.CompileSkips, sched.Stats.ExprHits
	sched.Submit(int64(cycles)*4, &workload.Job{
		ID: 2, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: int64(cycles) * 4,
		K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 300, DataNodes: []int{0, 1, 2, 3},
	})
	sched.Cycle(int64(cycles)*4, bitset.New(8))
	if sched.Stats.CompileSkips != skips {
		t.Errorf("arrival cycle skipped the compile (skips %d -> %d); a changed batch must compile fresh",
			skips, sched.Stats.CompileSkips)
	}
	if got := sched.Stats.ExprHits - hits; got != 2 {
		t.Errorf("untouched jobs recorded %d expression hits after the arrival, want 2", got)
	}
	if sched.Stats.CompileJobs != 2+3 {
		t.Errorf("CompileJobs = %d after the arrival cycle, want 5 (2 cold + 3 recompiled)", sched.Stats.CompileJobs)
	}
}

// TestCompileCacheKillSwitchInert pins DisableCompileCache (and the Greedy
// variant, which has no cycle-level batch): the front-end caches must be
// fully inert — no hits, no skips, no cache state — while the timers, which
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
		if sched.Stats.ExprHits != 0 || sched.Stats.ExprMisses != 0 || sched.Stats.CompileSkips != 0 {
			t.Errorf("%s (DisableCompileCache=%v): cache counters moved (exprHits=%d exprMisses=%d skips=%d); kill switch must make the caches inert",
				cfg.Name(), cfg.DisableCompileCache, sched.Stats.ExprHits, sched.Stats.ExprMisses, sched.Stats.CompileSkips)
		}
		if sched.exprCache != nil || sched.fe.valid {
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
	if sched.Stats.CompileSkips == 0 || sched.Stats.ExprHits == 0 {
		t.Error("enabled steady-state run recorded no front-end cache activity; the kill-switch contrast proves nothing")
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

// assertBatchCacheLive fails when the whole-batch cache holds a Compiled, or
// a component, that compScr has since compiled over.
func assertBatchCacheLive(t *testing.T, sched *Scheduler, when string) {
	t.Helper()
	if !sched.fe.valid {
		return
	}
	if sched.fe.comp.Stale() {
		t.Fatalf("%s: the batch cache holds a stale Compiled", when)
	}
	for i, cc := range sched.fe.comps {
		if cc.Stale() {
			t.Fatalf("%s: the batch cache holds stale component %d", when, i)
		}
	}
}

// TestCompileErrorDropsBatchCache: a cycle whose compile fails must not leave
// the previous batch in the cache. The cached Compiled lives in memory the
// failed compile was entitled to overwrite, so when the old batch comes back
// the next cycle has to compile it again, not replay the entry.
func TestCompileErrorDropsBatchCache(t *testing.T) {
	sched := steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0})
	for i := 0; i < 3; i++ {
		sched.Cycle(int64(i)*4, bitset.New(8))
	}
	if !sched.fe.valid || sched.Stats.CompileSkips == 0 {
		t.Fatal("the steady cycles did not cache their batch")
	}
	// Plant an expression strl.Validate rejects (an empty MAX) as job 0's
	// cached request: the batch changes, and compiling it fails.
	good := sched.exprCache[0].req
	sched.exprCache[0].req = &strlgen.Request{Job: good.Job, Expr: &strl.Max{}}
	jobs, skips := sched.Stats.CompileJobs, sched.Stats.CompileSkips
	if res := sched.Cycle(12, bitset.New(8)); len(res.Decisions) != 0 {
		t.Fatalf("a cycle that could not compile decided %+v", res.Decisions)
	}
	if sched.Stats.CompileJobs != jobs || sched.Stats.CompileSkips != skips {
		t.Fatal("the planted expression did not fail the compile")
	}
	if sched.fe.valid {
		t.Error("a failed compile left the batch cache valid")
	}
	// The old requests return, pointer for pointer.
	sched.exprCache[0].req = good
	sched.Cycle(16, bitset.New(8))
	if sched.Stats.CompileSkips != skips || sched.Stats.CompileJobs != jobs+2 {
		t.Errorf("after the failed compile: skips %d -> %d, compiled jobs %d -> %d; the batch must be compiled again",
			skips, sched.Stats.CompileSkips, jobs, sched.Stats.CompileJobs)
	}
	if !sched.fe.valid {
		t.Error("the recompiled batch was not cached")
	}
	assertBatchCacheLive(t, sched, "after the recompile")
}

// TestCycleNeverHoldsStaleCompiled runs a busy little cluster — arrivals,
// launches (each purges the batch cache mid-cycle through markJobDirty, while
// the cycle still reads the Compiled), completions — monolithic, sharded and
// greedy. Every cycle ends in mustBeLive, which panics if the Compiled it
// solved and decoded was compiled over; between cycles the cache must never
// point at dead memory.
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
			assertBatchCacheLive(t, sched, cfg.Name())
			switch {
			case sched.fe.valid:
				cached++
			case len(res.Decisions) > 0 && sched.feEnabled():
				purged++
			}
		}
		if launched != 20 {
			t.Errorf("%s: launched %d of 20 jobs", cfg.Name(), launched)
		}
		if sched.feEnabled() && (purged == 0 || cached == 0) {
			t.Errorf("%s: %d cycles purged the cache mid-cycle and %d left it filled; the scenario needs both", cfg.Name(), purged, cached)
		}
	}
}
