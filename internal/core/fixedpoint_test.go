package core

import (
	"strings"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/workload"
)

// keyScheduler is a fixed point on twelve nodes: jobs 100, 101 and 102 hold
// nodes 0-3, 4-7 and 8-11 and overrun, so every believed release slice stays
// 1, and data-local SLO residents 0 and 1 defer on nodes 0-3 and 4-7 (their
// whole-cluster fallback is culled by the deadline), so no request reaches
// nodes 8-11. Job 102's estimate ends at end102.
func keyScheduler(cfg Config, end102 int64) *Scheduler {
	s := New(cluster.NewBuilder().AddRack("r0", 12, nil).Build(), cfg)
	for i := 0; i < 3; i++ {
		j := &workload.Job{ID: 100 + i, Class: workload.BestEffort, Type: workload.Unconstrained, K: 4, BaseRuntime: 4, Slowdown: 1}
		s.running[j.ID] = &runInfo{job: j, nodes: []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3}}
	}
	s.running[102].estEnd = end102
	for i := 0; i < 2; i++ {
		s.Submit(0, &workload.Job{ID: i, Class: workload.SLO, Reserved: true, Type: workload.DataLocal,
			K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 300, DataNodes: []int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3}})
	}
	return s
}

// TestFixedPointKey moves each part of the fixed point's key, and the one
// condition on recording it, alone, and pins which cycles then plan (P) and
// which repeat the fixed point (R), beside a DisableCompileCache twin that
// must decide the same every cycle. A cycle repeats only when the requests
// (by pointer and revision), the free set and the believed release slices are
// those of a cycle that planned nothing new and reached no start-now grant.
func TestFixedPointKey(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		end102 int64                                 // job 102's estimated end
		move   func(s *Scheduler, now int64)         // the event, on each scheduler alike
		warm   []int                                 // the free set of each warm-up cycle
		free   []int                                 // the free set of each cycle from the move on
		want   string                                // the warm-up's cycles, then the move's
		check  func(t *testing.T, cached *Scheduler) // after the last cycle
	}{
		{name: "steady", move: func(*Scheduler, int64) {}, want: "PPR RRR"},
		{name: "arrival", want: "PPR PPR", move: func(s *Scheduler, now int64) {
			s.Submit(now, &workload.Job{ID: 2, Class: workload.SLO, Reserved: true, Type: workload.DataLocal,
				Submit: now, K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 300, DataNodes: []int{0, 1, 2, 3}})
		}},
		// Job 102 ends on nodes that were offered all along: only the release
		// slices move. (A node not offered keeps release slice 1 after its
		// job ends, the overrun job's slice, so that completion moves
		// nothing.)
		{name: "completion", want: "PPR PRR", warm: []int{8, 9, 10, 11}, free: []int{8, 9, 10, 11}, move: func(s *Scheduler, now int64) {
			s.JobFinished(now, s.running[102].job)
		}},
		// Node 8 is said to be free while job 102 is believed to hold it.
		{name: "free set", move: func(*Scheduler, int64) {}, want: "PPR PRR", free: []int{8}},
		// Job 102 runs short of its estimate until t=28: the release slices of
		// nodes 8-11 count down, and only once they stay put does a cycle
		// repeat.
		{name: "release slices", end102: 28, move: func(*Scheduler, int64) {}, want: "PPPP PPRR"},
		// A best-effort job past MaxBatch is re-priced every cycle, the same
		// request at a new revision.
		{name: "re-priced request", cfg: Config{MaxBatch: 2}, want: "PPR PPPP", move: func(s *Scheduler, now int64) {
			s.Submit(now, &workload.Job{ID: 3, Class: workload.BestEffort, Type: workload.Unconstrained,
				Submit: now, K: 4, BaseRuntime: 40, Slowdown: 1})
		}, check: func(t *testing.T, s *Scheduler) {
			if ent := s.exprCache[3]; ent == nil || ent.req.Rev != 3 {
				t.Errorf("job 3's request: %+v, want its first one at revision 3", ent)
			}
		}},
		// Job 102 ends, its nodes are not offered, and an SLO job wants them
		// now. A node not offered is believed busy for one more cycle, so the
		// job is planned a slice ahead, never as a start-now grant whose
		// commit would fail; its class is solved in the arrival's cycle, kept
		// in the next, and from then on the cycle repeats.
		{name: "failed start-now commit", want: "PPR PPRR", move: func(s *Scheduler, now int64) {
			s.JobFinished(now, s.running[102].job)
			s.Submit(now, &workload.Job{ID: 4, Class: workload.SLO, Reserved: true, Type: workload.Unconstrained,
				Submit: now, K: 4, BaseRuntime: 40, Slowdown: 1, Deadline: 300})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CyclePeriod, cfg.PlanAhead, cfg.Gap = 4, 16, 0
			uncached := cfg
			uncached.DisableCompileCache = true
			scheds := [2]*Scheduler{keyScheduler(cfg, tc.end102), keyScheduler(uncached, tc.end102)}
			got, now := "", int64(4)
			cycle := func(free []int) {
				var out [2]string
				repeats := scheds[0].Stats.RepeatedCycles
				for i, s := range scheds {
					out[i] = fuzzOutcome(s.Cycle(now, bitset.FromIndices(12, free...)))
				}
				if out[0] != out[1] {
					t.Fatalf("t=%d: the cached scheduler decided %s, the uncached one %s", now, out[0], out[1])
				}
				if scheds[0].Stats.RepeatedCycles > repeats {
					got += "R"
				} else {
					got += "P"
				}
				now += 4
			}
			for len(got) < strings.Index(tc.want, " ") {
				cycle(tc.warm)
			}
			for _, s := range scheds {
				tc.move(s, now)
			}
			got += " "
			for len(got) < len(tc.want) {
				cycle(tc.free)
			}
			if got != tc.want {
				t.Errorf("cycles %s, want %s", got, tc.want)
			}
			if tc.check != nil {
				tc.check(t, scheds[0])
			}
			if n := scheds[1].Stats.RepeatedCycles; n != 0 {
				t.Errorf("the uncached twin repeated %d cycles", n)
			}
		})
	}
}
