package tetrisched

import (
	"reflect"
	"testing"

	"tetrisched/internal/core"
	"tetrisched/internal/sim"
)

// TestCompileCacheParityProperty is the policy-invariance property of the
// cycle front end: across seeded multi-cycle simulations — arrivals,
// completions, drops, overruns, expression-TTL expiries, node failures,
// preemptions, truncation, and sharded cycles — a run with the
// expression/compile caches enabled must produce byte-identical per-job
// outcomes to the same run with DisableCompileCache. It reuses the
// incremental layer's instance generator (different seed range) so both
// cache layers face the same adversarial scenario space, and adds sharded
// instances because the cached batch also carries shard routing. The stats
// assertions keep both sides honest: disabled runs must never touch either
// cache, and enabled runs must actually skip work (every crafted steady
// instance, and in aggregate). Every cycle of both runs also ends in core's
// mustBeLive, which panics if the Compiled the cycle solved and decoded —
// cached, or compiled this cycle and purged from the cache by a launch — was
// compiled over meanwhile (compiler.Compiled.Stale).
func TestCompileCacheParityProperty(t *testing.T) {
	const instances = 220
	totalSkips, totalExprHits := 0, 0
	for i := 0; i < instances; i++ {
		seed := int64(17000 + i)
		inst := randomParityInstance(i, seed)
		// Every 6th instance runs sharded: offset from the steady stride
		// (i%4==0) so sharding also meets random clusters and failures.
		if i%6 == 5 {
			inst.cfg.Shards = 4
		}
		run := func(disable bool) (*sim.Result, *core.Scheduler) {
			cfg := inst.cfg
			cfg.DisableCompileCache = disable
			sched := core.New(inst.c, cfg)
			res, err := sim.Run(sim.Config{
				Cluster: inst.c, Jobs: inst.mkJobs(), Scheduler: sched, Failures: inst.failures,
			})
			if err != nil {
				t.Fatalf("seed %d (disable=%v): %v", seed, disable, err)
			}
			return res, sched
		}
		on, onSched := run(false)
		off, offSched := run(true)

		if !reflect.DeepEqual(on.Stats, off.Stats) {
			for j := range on.Stats {
				if !reflect.DeepEqual(on.Stats[j], off.Stats[j]) {
					t.Errorf("seed %d: job %d diverged:\n  cached:   %+v\n  disabled: %+v",
						seed, j, on.Stats[j], off.Stats[j])
				}
			}
		}
		if on.Makespan != off.Makespan || on.BusyNodeSeconds != off.BusyNodeSeconds || on.Stalled != off.Stalled {
			t.Errorf("seed %d: run shape diverged: makespan %d vs %d, busy %d vs %d, stalled %v vs %v",
				seed, on.Makespan, off.Makespan, on.BusyNodeSeconds, off.BusyNodeSeconds, on.Stalled, off.Stalled)
		}
		offS := offSched.Stats
		if offS.CompileSkips != 0 || offS.ExprHits != 0 || offS.ExprMisses != 0 {
			t.Errorf("seed %d: DisableCompileCache run touched the front-end caches (skips=%d exprHits=%d exprMisses=%d)",
				seed, offS.CompileSkips, offS.ExprHits, offS.ExprMisses)
		}
		if inst.steady && onSched.Stats.CompileSkips == 0 {
			t.Errorf("seed %d: crafted steady-state instance skipped no compiles", seed)
		}
		totalSkips += onSched.Stats.CompileSkips
		totalExprHits += onSched.Stats.ExprHits
	}
	if totalSkips == 0 || totalExprHits == 0 {
		t.Errorf("front-end caches never fired across any instance (skips=%d exprHits=%d); the parity property never exercised reuse",
			totalSkips, totalExprHits)
	}
	t.Logf("aggregate across %d instances: compile skips %d, expression hits %d", instances, totalSkips, totalExprHits)
}
