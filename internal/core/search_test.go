package core

import (
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
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
// machine (the blocks are under the serial cutoff, and the serial driver has
// no clock in it), so this is the time guard that has no noise. The root bound
// is within the gap of the seven-job optimum, so a block ends at the root when
// the root rounding finds seven jobs — which it does only if it ranks jobs by
// what the LP placed on their options (batch order finds six, and the search
// then waits 11 nodes and two cut rounds for the seventh).
func TestResidentSearchCounts(t *testing.T) {
	cycle := func(sched *Scheduler, free *bitset.Set, now int64) (nodes, cutRounds int) {
		before := sched.Stats
		sched.Cycle(now, free)
		return sched.Stats.Nodes - before.Nodes, sched.Stats.CutRounds - before.CutRounds
	}

	// One block (a single-component batch, the zero-copy path), then eight, the
	// scoreboard's set-up: a cold cycle, a cycle on the shifted seed (which no
	// component had last cycle, so nothing replays yet), then replay.
	for _, blocks := range []int{1, 8} {
		sched, free := residentScheduler(blocks)
		now := int64(4)
		for k := 0; k < 2; k, now = k+1, now+4 {
			if n, cuts := cycle(sched, free, now); n != blocks || cuts != 0 {
				t.Errorf("%d blocks, cycle %d: %d nodes and %d cut rounds, want one node a block and no cuts", blocks, k, n, cuts)
			}
		}
		if n, _ := cycle(sched, free, now); n != 0 || sched.Stats.ReuseHits != blocks {
			t.Errorf("%d blocks, third cycle: %d nodes, %d replays; want every block replayed", blocks, n, sched.Stats.ReuseHits)
		}
	}
}
