package core

import (
	"testing"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// residentScheduler rebuilds the scoreboard's resident workloads
// (benchmark/workloads.go, bench_test.go's churn benchmarks) on the first
// blocks racks of RC256: whole-rack blockers that overrun forever pin every
// believed release slice at 1, and nine data-local SLO residents of mixed
// widths per 8-node block — 108 node-slices of demand against 72 of supply —
// defer in place, each block one packing MILP. Nothing ever launches.
func residentScheduler(blocks int) (*Scheduler, *bitset.Set) {
	c := cluster.RC256(false)
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 40, MaxBatch: 192})
	for g := 0; g < 8; g++ {
		sched.Submit(0, &workload.Job{ID: 900 + g, Class: workload.BestEffort,
			Type: workload.Unconstrained, Submit: 0, K: 32, BaseRuntime: 4, Slowdown: 1})
	}
	sched.Cycle(0, c.All())
	id := 0
	for g := 0; g < blocks; g++ {
		for _, k := range [...]int{2, 3, 5, 7, 2, 3, 5, 7, 2} {
			sched.Submit(4, &workload.Job{ID: id, Class: workload.SLO, Reserved: true,
				Type: workload.DataLocal, Submit: 4, K: k, BaseRuntime: 12, Slowdown: 40,
				Deadline: 390, DataNodes: residentBlock(g)})
			id++
		}
	}
	return sched, bitset.New(c.N())
}

func residentBlock(g int) []int {
	data := make([]int, 8)
	for i := range data {
		data[i] = g*32 + i
	}
	return data
}

// TestResidentSearchCounts pins how much tree the scheduler's own options
// search on the resident blocks: none. Node counts repeat exactly on any
// machine (the search has no clock in it short of its limit), so this is the
// time guard that has no noise. The root bound is within the gap of the
// seven-job optimum, so a block ends at the root when the root rounding finds
// seven jobs — which it does only if it ranks jobs by what the LP placed on
// their options (batch order finds six, and the search then waits 11 nodes
// for the seventh). A block settles in one cycle: the second
// cycle's seed, the first plan shifted one slice, is strictly worse than the
// root rounding that the first solve adopted, so the solver proves it cannot
// change the answer and every block replays (before, each re-solved to the
// same answer: 8 sub-solves and 296 LP iterations on eight blocks). That
// second cycle plans nothing new, so it is the scheduler's fixed point, and
// the third to sixteenth of the scoreboard's warm cycles repeat it: no compile
// or solve span, and the replays and compile skips a planned cycle would
// count.
func TestResidentSearchCounts(t *testing.T) {
	type counts struct{ nodes, lpIters, replays, skips, repeats, spans int }
	cycle := func(sched *Scheduler, free *bitset.Set, now int64) counts {
		before, events := sched.Stats, len(sched.tr.Snapshot())
		sched.Cycle(now, free)
		st, spans := sched.Stats, 0
		for _, e := range sched.tr.Snapshot()[events:] {
			if e.Name == "compile" || e.Name == "solve" {
				spans++
			}
		}
		return counts{st.Nodes - before.Nodes,
			int(st.LP.Iterations - before.LP.Iterations), st.ReuseHits - before.ReuseHits,
			st.CompileSkips - before.CompileSkips, st.RepeatedCycles - before.RepeatedCycles, spans}
	}

	// One block (a single-component batch, the zero-copy path), then eight, the
	// scoreboard's set-up: a cold cycle, replay on the shifted seed, then the
	// fixed point repeated.
	for _, blocks := range []int{1, 8} {
		sched, free := residentScheduler(blocks)
		sched.tr = trace.New(1 << 12)
		now := int64(4)
		if c := cycle(sched, free, now); c.nodes != blocks || c.replays != 0 || c.repeats != 0 {
			t.Errorf("%d blocks, first cycle: %+v, want one node a block, no replays and no repeat", blocks, c)
		}
		now += 4
		if c, want := cycle(sched, free, now), (counts{replays: blocks, skips: 9 * blocks, spans: 2}); c != want {
			t.Errorf("%d blocks, second cycle: %+v, want %+v: every block replayed", blocks, c, want)
		}
		for k := 3; k <= 16; k++ {
			now += 4
			if c, want := cycle(sched, free, now), (counts{replays: blocks, skips: 9 * blocks, repeats: 1}); c != want {
				t.Errorf("%d blocks, cycle %d: %+v, want %+v: the fixed point repeated", blocks, k, c, want)
			}
		}
		if got := sched.Stats.RepeatedCycles; got != 14 {
			t.Errorf("%d blocks: %d of 16 warm cycles repeated the fixed point, want 14", blocks, got)
		}
	}
}

// TestUnprovenCounted: a sub-solve the work budget cuts off, with an
// incumbent or without, is counted as Unproven, by the global cycle and by
// TetriSched-NG's per-job solves alike, and at most once per sub-solve. The
// paper's GS HET mix on its 80-node cluster branches (TestRC80SearchCounts) and
// a 1 ms budget (30 units of LP work) stops most of its solves; a one-job
// solve is cut off only by the smallest budget there is, 1 ns (one unit). The
// budget counts work, not time, so the counts are exact on any machine and
// under the race detector (`make race` runs this test too); at the default
// budget the steady scenario is solved to the proof.
func TestUnprovenCounted(t *testing.T) {
	c := cluster.RC80(false)
	jobs, err := workload.Generate(workload.GSHET(150), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 96, SolverTimeLimit: time.Millisecond})
	if _, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched, Plan: rayon.NewPlan(c.N(), 4), CyclePeriod: 4}); err != nil {
		t.Fatal(err)
	}
	// With the cache on, every component solved is a reuse miss.
	st := sched.Stats
	if got, want := [4]int64{int64(st.Unproven), int64(st.ReuseMisses), int64(st.Nodes), st.LP.Iterations}, [4]int64{297, 541, 361, 9263}; got != want {
		t.Errorf("GS HET at a 1 ms budget: unproven, sub-solves, nodes, LP iterations = %v, want %v", got, want)
	}
	for _, cfg := range []Config{
		{CyclePeriod: 4, PlanAhead: 16, Greedy: true, SolverTimeLimit: time.Nanosecond},
		{CyclePeriod: 4, PlanAhead: 16},
	} {
		sched := steadyScheduler(cfg)
		for i := 0; i < 5; i++ {
			sched.Cycle(int64(i)*4, bitset.New(8))
		}
		st := sched.Stats
		if cfg.Greedy && (st.Unproven != 10 || st.Solves != 10) {
			t.Errorf("greedy at a 1 ns budget: %d unproven of %d solves, want all 10", st.Unproven, st.Solves)
		}
		if !cfg.Greedy && (st.Unproven != 0 || st.ReuseMisses == 0) {
			t.Errorf("steady scenario: %d unproven of %d sub-solves, want none", st.Unproven, st.ReuseMisses)
		}
	}
}

// TestRC80SearchCounts pins the serial search where it branches. The resident
// blocks and the scoreboard's five workloads end at the root; the paper's
// mixes on its 80-node cluster do not (`tetrisim -cluster rc80 -jobs 150
// -solver-limit 120s -v`: thousands of nodes, nearly every node LP warm,
// pseudocosts choosing the branch), so this is where a change to the search
// that moves a pop, an LP or an incumbent shows. The counts repeat on any machine:
// the search has no clock in it, and at the default budget (two seconds of
// work, 60 000 units) no solve is cut off — the largest tree, in GR SLO, has
// 1 118 nodes. A moved count is a changed search, not an in-gap tie. GR SLO and GR
// MIX each solve one component with a single column and no row; since
// presolve stopped fixing columns the LP answers it at its root, one node and
// two iterations more than when presolve fixed the column and no LP ran.
func TestRC80SearchCounts(t *testing.T) {
	for _, tc := range []struct {
		mix     workload.Mix
		nodes   int
		lpIters int64
	}{
		{workload.GRSLO(150), 4048, 14467},
		{workload.GRMIX(150), 4222, 23330},
		{workload.GSMIX(150), 504, 11527},
	} {
		c := cluster.RC80(false)
		jobs, err := workload.Generate(tc.mix, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		sched := New(c, Config{CyclePeriod: 4, PlanAhead: 96})
		if _, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched, Plan: rayon.NewPlan(c.N(), 4), CyclePeriod: 4}); err != nil {
			t.Fatal(err)
		}
		if st := sched.Stats; st.Nodes != tc.nodes || st.LP.Iterations != tc.lpIters {
			t.Errorf("%s: %d nodes and %d LP iterations; the serial search takes %d and %d",
				tc.mix.Name, st.Nodes, st.LP.Iterations, tc.nodes, tc.lpIters)
		}
	}
}

// TestResidentChurnCounts pins what the warm start does on the resident
// scenario: eight blocks, sixteen settling cycles, then forty cycles in which
// 1 % of the residents arrive fresh (bench_test.go's churn benchmark, its
// accumulator included). A seed that changes — one more or one fewer
// component seeded, a different vector — re-solves its component unless the
// solver proves the new seed cannot change the answer, and moves these counts
// either way, which repeat exactly on any machine for the reasons
// TestResidentSearchCounts gives.
func TestResidentChurnCounts(t *testing.T) {
	sched, free := residentScheduler(8)
	now := int64(4)
	for k := 0; k < 16; k, now = k+1, now+4 {
		sched.Cycle(now, free)
	}
	id, acc, rot := 1000, 0, 0
	for k := 0; k < 40; k, now = k+1, now+4 {
		for acc += 8 * 9; acc >= 100; acc -= 100 {
			sched.Submit(now, &workload.Job{ID: id, Class: workload.SLO, Reserved: true,
				Type: workload.DataLocal, Submit: now, K: 2, BaseRuntime: 4, Slowdown: 40,
				Deadline: now + 10, DataNodes: residentBlock(rot % 8)})
			id, rot = id+1, rot+1
		}
		sched.Cycle(now, free)
	}
	st := sched.Stats
	got := [5]int64{int64(st.WarmStarts), int64(st.ReuseHits), int64(st.ReuseMisses), st.LP.Iterations, int64(st.Nodes)}
	if want := [5]int64{83, 357, 127, 3663, 99}; got != want {
		t.Errorf("warm starts, replays, solves, LP iterations, nodes = %v, want %v", got, want)
	}
}
