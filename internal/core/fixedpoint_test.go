package core

import (
	"strings"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// commitCheck is a trace sink that checks every global cycle's extraction: the
// grants it reached, less the deferred ones, equal its launches. A monolithic
// cycle plans a start-now grant only on nodes at release slice 0, and every
// one of them is in the free set, so its commit cannot fail. That is why a
// cycle that launched nothing reached no start-now grant, and why the fixed
// point needs no guard of its own for one. The check holds only without
// shards: a sharded cycle's commit can fail by design.
type commitCheck struct {
	t      testing.TB
	defers int64 // deferred grants of the extraction under way
	checks int   // extractions checked
}

func (c *commitCheck) Emit(e *trace.Event) error {
	switch {
	case e.Cat == "place" && e.Name == "defer":
		c.defers++
	case e.Cat == "extract":
		var granted, launched int64
		for _, a := range e.Args[:e.NArg] {
			switch a.Key {
			case "granted":
				granted = a.Int()
			case "launched":
				launched = a.Int()
			}
		}
		if granted-c.defers != launched {
			c.t.Errorf("vt=%d: %d grants, %d of them deferred, but %d launches: a start-now commit failed",
				e.VT, granted, c.defers, launched)
		}
		c.defers = 0
		c.checks++
	}
	return nil
}

func (c *commitCheck) Close() error { return nil }

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
		// slices move.
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
		// now. A node not offered is believed busy for one more cycle, then 2,
		// 4 and, past the 4-slice window, 5, so the job is planned ahead, never
		// as a start-now grant whose commit would fail. The release slices move
		// for four cycles; the class is kept in the fifth, and from then on the
		// cycle repeats.
		{name: "failed start-now commit", want: "PPR PPPPPRR", move: func(s *Scheduler, now int64) {
			s.JobFinished(now, s.running[102].job)
			s.Submit(now, &workload.Job{ID: 4, Class: workload.SLO, Reserved: true, Type: workload.Unconstrained,
				Submit: now, K: 4, BaseRuntime: 40, Slowdown: 1, Deadline: 300})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CyclePeriod, cfg.PlanAhead, cfg.Gap = 4, 16, 0
			commits := &commitCheck{t: t}
			cfg.Tracer = trace.New(64).SetSink(commits)
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
			if commits.checks == 0 {
				t.Error("no extraction was checked")
			}
		})
	}
}
