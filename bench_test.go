// Package tetrisched's root benchmark suite regenerates every table and
// figure of the paper at a reduced scale — the same code paths as
// cmd/experiments, sized so `go test -bench=.` terminates quickly. The
// full-scale numbers in EXPERIMENTS.md come from `cmd/experiments -all`.
package tetrisched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/compiler"
	"tetrisched/internal/core"
	"tetrisched/internal/experiments"
	"tetrisched/internal/httpapi"
	"tetrisched/internal/loadgen"
	"tetrisched/internal/metrics"
	"tetrisched/internal/milp"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/strl"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/workload"
)

func benchFig(b *testing.B, fn func(io.Writer, experiments.Scale) error) {
	b.Helper()
	sc := experiments.Bench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Workloads generates every Table 1 workload mix.
func BenchmarkTable1Workloads(b *testing.B) {
	c256 := cluster.RC256(false)
	c80 := cluster.RC80(true)
	for i := 0; i < b.N; i++ {
		for _, m := range []workload.Mix{workload.GRSLO(200), workload.GRMIX(200)} {
			if _, err := workload.Generate(m, c256, 1); err != nil {
				b.Fatal(err)
			}
		}
		for _, m := range []workload.Mix{workload.GSMIX(200), workload.GSHET(200)} {
			if _, err := workload.Generate(m, c80, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4MILPExample compiles and solves the §5.1 example.
func BenchmarkFig4MILPExample(b *testing.B) {
	n := 3
	all := bitset.New(n)
	all.Fill()
	jobs := []strl.Expr{
		&strl.NCk{Set: all, K: 2, Start: 0, Dur: 1, Value: 1},
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: all, K: 1, Start: 0, Dur: 2, Value: 1},
			&strl.NCk{Set: all, K: 1, Start: 1, Dur: 2, Value: 1},
			&strl.NCk{Set: all, K: 1, Start: 2, Dur: 2, Value: 1},
		}},
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: all, K: 3, Start: 0, Dur: 1, Value: 1},
			&strl.NCk{Set: all, K: 3, Start: 1, Dur: 1, Value: 1},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := compiler.Compile(jobs, compiler.Options{Universe: n, Horizon: 4})
		if err != nil {
			b.Fatal(err)
		}
		sol, err := milp.Solve(comp.Model, milp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Objective < 3-1e-9 {
			b.Fatalf("objective = %v, want 3", sol.Objective)
		}
	}
}

// Per-figure benchmarks: the exact experiment code at Bench scale.
func BenchmarkFig6GRMixEstimateError(b *testing.B) { benchFig(b, experiments.Fig6) }
func BenchmarkFig7GRSLOEstimateError(b *testing.B) { benchFig(b, experiments.Fig7) }
func BenchmarkFig8GSMixEstimateError(b *testing.B) { benchFig(b, experiments.Fig8) }
func BenchmarkFig9SoftConstraints(b *testing.B)    { benchFig(b, experiments.Fig9) }
func BenchmarkFig10GlobalScheduling(b *testing.B)  { benchFig(b, experiments.Fig10) }
func BenchmarkFig11PlanAhead(b *testing.B)         { benchFig(b, experiments.Fig11) }
func BenchmarkFig12Scalability(b *testing.B)       { benchFig(b, experiments.Fig12) }

// Extension benchmarks: TR-scale cluster sweep and elastic-job ablation.
func BenchmarkExtScaleSweep(b *testing.B)      { benchFig(b, experiments.ExtScale) }
func BenchmarkExtElasticAblation(b *testing.B) { benchFig(b, experiments.ExtElastic) }

// BenchmarkSchedulerCycle measures one TetriSched cycle on a loaded RC80
// heterogeneous cluster — the paper's core scalability quantity (Fig 12).
func BenchmarkSchedulerCycle(b *testing.B) {
	c := cluster.RC80(true)
	jobs, err := workload.Generate(workload.GSHET(40), c, 7)
	if err != nil {
		b.Fatal(err)
	}
	plan := rayon.NewPlan(c.N(), 4)
	sched := core.New(c, core.Config{CyclePeriod: 4, PlanAhead: 96})
	for _, j := range jobs {
		if j.Class == workload.SLO {
			r := plan.Admit(j.ID, 0, j.Deadline+1000, j.K, j.EstRuntime(true))
			j.Reserved = r != nil
		}
		sched.Submit(0, j)
	}
	free := c.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Cycle(int64(i)*4, free.Clone())
	}
}

// BenchmarkSchedulerCycleMultiComponent measures one cycle over a workload
// that decomposes: data-local SLO jobs pinned to disjoint replica sets on an
// RC256 cluster, with deadlines tight enough to cull the whole-cluster
// fallback. Each iteration rebuilds the scheduler so every measured cycle
// performs the full decomposed global solve.
func BenchmarkSchedulerCycleMultiComponent(b *testing.B) {
	c := cluster.RC256(false)
	mkJobs := func() []*workload.Job {
		jobs := make([]*workload.Job, 0, 16)
		for g := 0; g < 8; g++ {
			lo := g * 32
			data := []int{lo, lo + 1, lo + 2, lo + 3}
			for j := 0; j < 2; j++ {
				jobs = append(jobs, &workload.Job{
					ID: g*2 + j, Class: workload.SLO, Reserved: true, Type: workload.DataLocal,
					Submit: 0, K: 2, BaseRuntime: 40, Slowdown: 2, Deadline: 50, DataNodes: data,
				})
			}
		}
		return jobs
	}
	var sched *core.Scheduler
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched = core.New(c, core.Config{CyclePeriod: 4, PlanAhead: 40})
		for _, j := range mkJobs() {
			sched.Submit(0, j)
		}
		free := c.All()
		b.StartTimer()
		sched.Cycle(0, free)
	}
	b.StopTimer()
	if sched.Stats.Decomposed == 0 || sched.Stats.Components < 2 {
		b.Fatalf("cycle did not decompose (solves=%d components=%d); benchmark is not measuring the decomposed path",
			sched.Stats.Decomposed, sched.Stats.Components)
	}
}

// benchResidentChurn measures one TetriSched cycle on an RC256 cluster as a
// function of churn — the cross-cycle caches' headline quantity (cycle cost
// proportional to change, not cluster size). Eight overrunning whole-cluster
// blockers pin every believed release slice at 1, and nine data-local SLO
// residents per block (binding block supply rows keep each block one
// component) defer in place with identical solve inputs cycle after cycle.
// churnPct percent of the 72 residents arrive fresh each cycle (fractional
// accumulator) as short-deadline jobs on a rotating block, dirtying that
// block's class for the 2–3 cycles they live. The scheduler is rebuilt each
// epoch, inside the resident deadlines' identity band, so leaf values never
// shift mid-measurement. Besides ns/op (the whole cycle) it reports
// "frontend-ns", the per-cycle GenerateNS+CompileNS, and the compile skip
// rate. disableCache runs the same cycles with DisableCompileCache: the cold
// baseline, regenerating, recompiling and solving every class.
func benchResidentChurn(b *testing.B, churnPct int, disableCache bool) {
	c := cluster.RC256(false)
	const (
		blocks     = 8
		perBlock   = 9
		warmCycles = 16
		epochLen   = 60 // measured cycles per scheduler epoch
	)
	// Mixed widths over an 8-node block with 3-slice durations make each
	// component a genuine packing MILP (oversubscribed ~108 node-slices of
	// demand against 72 of supply) rather than a one-job-fits horizon pick.
	// This exact mix sits in a measured sweet spot: ~50ms per cold cycle —
	// expensive enough that solving dominates compilation, yet 40x below the
	// 2s solver time limit (time-limited solves return Feasible, which the
	// reuse cache rightly refuses to store).
	widths := [perBlock]int{2, 3, 5, 7, 2, 3, 5, 7, 2}
	blockData := func(g int) []int {
		data := make([]int, 8)
		for i := range data {
			data[i] = g*32 + i
		}
		return data
	}
	free := bitset.New(c.N()) // ground truth: never free while blockers run
	var sched *core.Scheduler
	var now, feNS int64
	cyclesLeft, nextID, acc, rot := 0, 1000, 0, 0
	var total core.SolveStats // the finished epochs' counters
	flush := func() {
		if sched != nil {
			total.CompileSkips += sched.Stats.CompileSkips
			total.CompileJobs += sched.Stats.CompileJobs
			total.ExprHits += sched.Stats.ExprHits
			total.ReuseHits += sched.Stats.ReuseHits
			total.ReuseMisses += sched.Stats.ReuseMisses
		}
	}
	newEpoch := func() {
		flush()
		sched = core.New(c, core.Config{CyclePeriod: 4, PlanAhead: 40, MaxBatch: 192,
			DisableCompileCache: disableCache})
		for g := 0; g < blocks; g++ {
			sched.Submit(0, &workload.Job{ID: 900 + g, Class: workload.BestEffort,
				Type: workload.Unconstrained, Submit: 0, K: 32, BaseRuntime: 4, Slowdown: 1})
		}
		sched.Cycle(0, c.All()) // blockers launch, then overrun forever
		id := 0
		for g := 0; g < blocks; g++ {
			for j := 0; j < perBlock; j++ {
				// Slowdown 40 culls the 480s whole-cluster fallback against the
				// 390s deadline; the deadline stays non-binding for the local
				// options through the whole epoch (16+60 cycles end at t=304,
				// inside the identity band that closes at t=342).
				sched.Submit(4, &workload.Job{ID: id, Class: workload.SLO, Reserved: true,
					Type: workload.DataLocal, Submit: 4, K: widths[j], BaseRuntime: 12, Slowdown: 40,
					Deadline: 390, DataNodes: blockData(g)})
				id++
			}
		}
		now = 4
		for i := 0; i < warmCycles; i++ {
			sched.Cycle(now, free)
			now += 4
		}
		cyclesLeft = epochLen
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cyclesLeft == 0 {
			b.StopTimer()
			newEpoch()
			b.StartTimer()
		}
		acc += churnPct * blocks * perBlock
		for acc >= 100 {
			acc -= 100
			// One live start choice (slice 1; slice 0 is capacity-culled, the
			// whole-cluster fallback value-culled) and a 1-slice duration: the
			// arrival dirties its block's class and forces a fresh solve on
			// entry and again on exit without reshaping the packing MILP.
			sched.Submit(now, &workload.Job{ID: nextID, Class: workload.SLO, Reserved: true,
				Type: workload.DataLocal, Submit: now, K: 2, BaseRuntime: 4, Slowdown: 40,
				Deadline: now + 10, DataNodes: blockData(rot % blocks)})
			nextID++
			rot++
		}
		pre := sched.Stats.GenerateNS + sched.Stats.CompileNS
		sched.Cycle(now, free)
		feNS += sched.Stats.GenerateNS + sched.Stats.CompileNS - pre
		now += 4
		cyclesLeft--
	}
	b.StopTimer()
	flush()
	switch {
	case disableCache && total.CompileSkips+total.ExprHits+total.ReuseHits+total.ReuseMisses != 0:
		b.Fatal("cold churn benchmark touched the caches")
	case !disableCache && total.CompileSkips == 0:
		b.Fatal("steady-state churn benchmark skipped no compiles; it is not measuring the class table")
	case !disableCache && total.ReuseHits == 0:
		b.Fatal("steady-state churn benchmark recorded no reuse hits; it is not measuring replay")
	}
	b.ReportMetric(float64(feNS)/float64(b.N), "frontend-ns")
	if n := total.CompileSkips + total.CompileJobs; n > 0 {
		b.ReportMetric(float64(total.CompileSkips)/float64(n), "compile-skip-rate")
	}
}

// Churn sweep: percentage of the 72 residents replaced per cycle. Churn0 is
// the pure steady state (every component replays). The two sweeps are one
// scenario under two names, read for ns/op and for frontend-ns; each ChurnCold
// runs its sweep's workload (1 % and 0 % churn) with DisableCompileCache, the
// cold baseline the steady-state ratios in BENCH_milp.json are measured
// against. Their BENCH_milp.json lines from before the cold baseline stopped
// replaying (SchedulerCycleChurnCold used to keep the class table and
// FrontEndChurnCold to replay across recompiles) do not compare with later
// ones.
func BenchmarkSchedulerCycleChurn0(b *testing.B)    { benchResidentChurn(b, 0, false) }
func BenchmarkSchedulerCycleChurn1(b *testing.B)    { benchResidentChurn(b, 1, false) }
func BenchmarkSchedulerCycleChurn10(b *testing.B)   { benchResidentChurn(b, 10, false) }
func BenchmarkSchedulerCycleChurn50(b *testing.B)   { benchResidentChurn(b, 50, false) }
func BenchmarkSchedulerCycleChurnCold(b *testing.B) { benchResidentChurn(b, 1, true) }
func BenchmarkCycleFrontEndChurn0(b *testing.B)     { benchResidentChurn(b, 0, false) }
func BenchmarkCycleFrontEndChurn1(b *testing.B)     { benchResidentChurn(b, 1, false) }
func BenchmarkCycleFrontEndChurn10(b *testing.B)    { benchResidentChurn(b, 10, false) }
func BenchmarkCycleFrontEndChurn50(b *testing.B)    { benchResidentChurn(b, 50, false) }
func BenchmarkCycleFrontEndChurnCold(b *testing.B)  { benchResidentChurn(b, 0, true) }

// benchShardedCycle runs the full RC10K sharding scenario (internal/
// experiments.ExtShard's code path, bench scale) once per iteration: a
// 10240-node cluster under a GS HET workload whose unconstrained jobs couple
// the monolithic solve into one global MILP per cycle. Alongside ns/op it
// reports the two acceptance quantities tracked in BENCH_milp.json: mean
// scheduling-cycle latency (multi-shard must beat monolithic — concurrent
// per-shard planners shrink the coupled search) and SLO attainment (optimistic
// commit must hold within 2% of the monolithic policy).
func benchShardedCycle(b *testing.B, shards int) {
	c := experiments.RC10K()
	sc := experiments.Bench()
	mix := workload.GSHET(sc.Jobs * 8)
	var cycleMS, slo float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, sh, err := experiments.RunSharded(c, mix, 1000, sc, shards)
		if err != nil {
			b.Fatal(err)
		}
		if shards > 0 && sh.Cycles == 0 {
			b.Fatal("sharded run never exercised the shard control plane")
		}
		cycleMS = metrics.NewDurationCDF(sum.CycleLatencies).Mean()
		slo = sum.SLOAll
	}
	b.ReportMetric(cycleMS, "cycle-ms")
	b.ReportMetric(slo, "slo-pct")
}

func BenchmarkShardedCycleMonolithic(b *testing.B) { benchShardedCycle(b, 0) }
func BenchmarkShardedCycle1Shards(b *testing.B)    { benchShardedCycle(b, 1) }
func BenchmarkShardedCycle4Shards(b *testing.B)    { benchShardedCycle(b, 4) }
func BenchmarkShardedCycle16Shards(b *testing.B)   { benchShardedCycle(b, 16) }

// BenchmarkShardedCycleLU is the 4-shard scenario at the 10k-node scale the
// sparse LU factorization exists for.
func BenchmarkShardedCycleLU(b *testing.B) {
	c := experiments.RC10K()
	sc := experiments.Bench()
	mix := workload.GSHET(sc.Jobs * 8)
	var cycleMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, _, err := experiments.RunSharded(c, mix, 1000, sc, 4)
		if err != nil {
			b.Fatal(err)
		}
		cycleMS = metrics.NewDurationCDF(sum.CycleLatencies).Mean()
	}
	b.ReportMetric(cycleMS, "cycle-ms")
}

// benchLoadgen drives the HTTP front door (POST /v1/submit → bounded ingress
// queue → weighted-fair drain) with b.N jobs through internal/loadgen and
// reports the admission path's domain numbers alongside ns/op: sustained
// jobs/sec, p50/p99 submit latency, and the backpressure (429) rate. The
// scheduler behind the daemon is a no-op so the tracked number is front-door
// cost, not solver noise.
func benchLoadgen(b *testing.B, maxQueue int, cycleEvery time.Duration) {
	api := httpapi.NewServer(nopSched{}, 8).
		SetAdmission(httpapi.AdmissionConfig{MaxQueue: maxQueue})
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	b.ResetTimer()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    ts.URL,
		Workers:    8,
		Batch:      64,
		MaxJobs:    int64(b.N),
		Duration:   time.Hour, // MaxJobs terminates the run
		CycleEvery: cycleEvery,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Err4xx+res.Err5xx+res.ErrNet > 0 {
		b.Fatalf("front door errored under load: %+v", res)
	}
	b.ReportMetric(res.OfferedRate(), "jobs/sec")
	b.ReportMetric(float64(res.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
	b.ReportMetric(res.RejectRate(), "reject-rate")
}

// nopSched lets the loadgen benchmarks isolate admission cost.
type nopSched struct{}

func (nopSched) Name() string                                 { return "nop" }
func (nopSched) Submit(int64, *workload.Job)                  {}
func (nopSched) JobFinished(int64, *workload.Job)             {}
func (nopSched) Cycle(int64, *bitset.Set) (r sim.CycleResult) { return }

// BenchmarkLoadgenAdmission is the tracked front-door throughput number: a
// large queue with a cycle driver draining it, so nearly every job is
// admitted and ns/op is the accept-path cost per job.
func BenchmarkLoadgenAdmission(b *testing.B) { benchLoadgen(b, 1<<20, 2*time.Millisecond) }

// BenchmarkLoadgenBackpressure saturates a small queue with no drain: after
// the first batches fill it, every request exercises the 429 reject path,
// which must stay cheap (rejecting is the overload defense).
func BenchmarkLoadgenBackpressure(b *testing.B) { benchLoadgen(b, 256, 0) }

// BenchmarkEndToEndGSHET runs a small full simulation (workload → admission
// → scheduling → metrics) per iteration.
func BenchmarkEndToEndGSHET(b *testing.B) {
	c := cluster.RC80(true)
	for i := 0; i < b.N; i++ {
		jobs, err := workload.Generate(workload.GSHET(20), c, 3)
		if err != nil {
			b.Fatal(err)
		}
		plan := rayon.NewPlan(c.N(), 4)
		sched := core.New(c, core.Config{CyclePeriod: 4, PlanAhead: 48})
		if _, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched, Plan: plan, CyclePeriod: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// gshetBatch is a fixed captured cycle input for the per-layer benchmarks and
// the model golden: the first n jobs of a seeded GS HET trace on RC256,
// lowered to STRL at the moment the last of them arrives (4 s quantum, 96 s
// plan-ahead, the benchmark's trace workloads), against a cluster where every
// third node is busy for a few slices, so covers span several partition
// groups, some options are culled and supply rows bind.
func gshetBatch(tb testing.TB, n int, seed int64) ([]strl.Expr, compiler.Options) {
	tb.Helper()
	gen, jobs, now := gshetJobs(tb, n, seed)
	var exprs []strl.Expr
	for _, j := range jobs {
		if req := gen.Generate(now, j); req != nil {
			exprs = append(exprs, req.Expr)
		}
	}
	if len(exprs) < n/2 {
		tb.Fatalf("only %d of %d jobs still have an option at t=%d", len(exprs), n, now)
	}
	rel := make([]int64, rc256.N())
	for i := range rel {
		if i%3 == 0 {
			rel[i] = int64(1 + i%5)
		}
	}
	return exprs, compiler.Options{Universe: rc256.N(), Horizon: 24, ReleaseAt: rel}
}

// rc256 is the fixed batch's cluster.
var rc256 = cluster.RC256(true)

// gshetJobs is the generator's side of gshetBatch: the jobs, the generator
// and the time the batch is lowered at.
func gshetJobs(tb testing.TB, n int, seed int64) (*strlgen.Generator, []*workload.Job, int64) {
	tb.Helper()
	jobs, err := workload.Generate(workload.GSHET(n), rc256, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return strlgen.New(rc256, strlgen.Default(4, 96)), jobs, jobs[len(jobs)-1].Submit
}

// TestCompiledModelGolden pins the text of compiled GS HET models, as
// Model.String prints them (and `strlc -milp` shows them), to digests. A model
// carries no names, so the text is every variable's and row's index, bounds,
// type, terms and limit. The batches compile to exactly the model presolve
// used to reduce them to (1685×423, 4380×868 and 7382×1188, the sizes
// TestLeanLowering pins): the compiler emits no job indicator under a MAX
// root, no partition variable of a group with nothing free, no one-option max
// row and no repeated supply row. The model the solver sees changes only on
// purpose.
func TestCompiledModelGolden(t *testing.T) {
	for _, tc := range []struct {
		jobs   int
		seed   int64
		digest string
	}{
		{24, 1, "f7f58025c9831777b1d3fdc14e6500dde3ed1068975b8c33e89dc27bf26baac9"},
		{60, 2, "b774475e6229780dfa7386b24472d1d7c616e8529954ec2384fe5be4c334384f"},
		{120, 3, "49a0b794c9ff12219240875d89a9bda867cef085d11a616bd2ce56b7d6b3a4fa"},
	} {
		exprs, opts := gshetBatch(t, tc.jobs, tc.seed)
		comp, err := compiler.Compile(exprs, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(comp.Model.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("GS HET batch of %d (seed %d): %d vars, %d rows, model text digest %s, want %s",
				tc.jobs, tc.seed, comp.Model.NumVars(), comp.Model.NumConstraints(), got, tc.digest)
		}
	}
}

// The per-layer micro-benchmarks (ROADMAP 1(c)): one layer each, on the fixed
// input above, steady state — the memory the caller owns (compiler.Scratch,
// milp.Workspace) is warm, as it is in a running scheduler. B/op and
// allocs/op repeat exactly from run to run; ns/op on a shared box does not.

// BenchmarkGenerate lowers the batch's 60 jobs to STRL, one op per batch.
func BenchmarkGenerate(b *testing.B) {
	gen, jobs, now := gshetJobs(b, 60, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, j := range jobs {
			if req, _ := gen.GenerateTTL(now, j); req != nil {
				n++
			}
		}
		if n < len(jobs)/2 {
			b.Fatalf("%d of %d jobs have an option", n, len(jobs))
		}
	}
}

func BenchmarkCompileBatch(b *testing.B) {
	exprs, opts := gshetBatch(b, 60, 2)
	var sc compiler.Scratch
	for i := 0; i < 2; i++ { // grow the Scratch to fit, outside the measurement
		if _, err := sc.Compile(exprs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Compile(exprs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// split is one of the two decompositions the cycle uses.
type split struct {
	name string
	do   func(*compiler.Compiled) []*compiler.Component
}

// splits returns both for a batch of nJobs: the natural decomposition, and
// the sharded scheduler's, forced along a round-robin 4-class assignment.
func splits(nJobs int) []split {
	assign := make([]int, nJobs)
	for j := range assign {
		assign[j] = j % 4
	}
	return []split{
		{"Components", (*compiler.Compiled).Components},
		{"Forced4", func(c *compiler.Compiled) []*compiler.Component { return c.ForcedComponents(assign, -1) }},
	}
}

// recompile compiles the batch over sc's previous one with the clock
// stopped. Decompositions live in their Scratch until its next Compile, so
// making room for the next one is the set-up of every op that measures one.
func recompile(b *testing.B, sc *compiler.Scratch, exprs []strl.Expr, opts compiler.Options) *compiler.Compiled {
	b.StopTimer()
	defer b.StartTimer()
	comp, err := sc.Compile(exprs, opts)
	if err != nil {
		b.Fatal(err)
	}
	return comp
}

// BenchmarkDecompose splits the compiled batch into components on a warm
// Scratch: what it allocates is the Component structs and their pointer list.
func BenchmarkDecompose(b *testing.B) {
	exprs, opts := gshetBatch(b, 60, 2)
	for _, tc := range splits(len(exprs)) {
		b.Run(tc.name, func(b *testing.B) {
			var sc compiler.Scratch
			for i := 0; i < 2; i++ { // grow the Scratch to fit, outside the measurement
				tc.do(recompile(b, &sc, exprs, opts))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comp := recompile(b, &sc, exprs, opts)
				if len(tc.do(comp)) == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// BenchmarkFingerprint fingerprints every component of the batch.
func BenchmarkFingerprint(b *testing.B) {
	exprs, opts := gshetBatch(b, 60, 2)
	for _, tc := range splits(len(exprs)) {
		b.Run(tc.name, func(b *testing.B) {
			var sc compiler.Scratch
			comp := recompile(b, &sc, exprs, opts)
			comps := tc.do(comp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cc := range comps {
					if comp.ComponentFingerprint(cc) == 0 {
						b.Fatal("zero fingerprint")
					}
				}
			}
		})
	}
}

func BenchmarkPartition(b *testing.B) {
	exprs, opts := gshetBatch(b, 60, 2)
	universe := cluster.RC256(true).All()
	var eqsets []*bitset.Set
	for _, e := range exprs {
		for _, l := range strl.Leaves(e) {
			eqsets = append(eqsets, l.(*strl.NCk).Set)
		}
	}
	if universe.Cap() != opts.Universe {
		b.Fatal("universe mismatch")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := cluster.Partition(universe, eqsets); len(p.Groups) < 2 {
			b.Fatal("partition did not split")
		}
	}
}

// BenchmarkRootLP is the solve of the compiled model cut off after its root
// relaxation: LP build, cold primal solve, rounding. No tree (MaxNodes 1),
// and a heuristic that proposes nothing stands in for the compiler's
// rounding.
func BenchmarkRootLP(b *testing.B) {
	exprs, opts := gshetBatch(b, 60, 2)
	comp, err := compiler.Compile(exprs, opts)
	if err != nil {
		b.Fatal(err)
	}
	mopts := milp.Options{
		MaxNodes:  1,
		Heuristic: func([]float64) []float64 { return nil },
	}
	var ws milp.Workspace
	for i := 0; i < 2; i++ { // grow the slabs to fit, outside the measurement
		if _, err := ws.Solve(comp.Model, mopts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := ws.Solve(comp.Model, mopts)
		if err != nil || sol.LP.ColdStarts != 1 {
			b.Fatalf("root solve: %v %+v", err, sol)
		}
	}
}
