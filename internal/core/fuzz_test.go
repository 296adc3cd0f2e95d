package core

import (
	"fmt"
	"slices"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/sim"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// fuzzInput reads a fuzzer's bytes as small non-negative integers, zeros once
// they run out.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	v := int((*in)[0])
	*in = (*in)[1:]
	return v % n
}

// fuzzJob decodes one arrival at now: any placement type, gang width 1–3,
// best effort or SLO with or without a reservation, a deadline from no slack
// (which leaves a reserved job its start-now options only) to far beyond the
// window, and data nodes on a short range of the cluster.
// It returns the job and how long it really runs: up to a cycle less than its
// base runtime or several more, so jobs overrun, which pins the believed
// release slices of their nodes and lets the classes waiting on them be kept.
func fuzzJob(in *fuzzInput, id int, now int64, nodes int) (*workload.Job, int64) {
	j := &workload.Job{ID: id, Type: workload.Type(in.next(5)), Submit: now,
		K: 1 + in.next(3), BaseRuntime: int64(4 * (1 + in.next(6))), Slowdown: float64(1 + in.next(3))}
	switch in.next(3) {
	case 0:
		j.Class = workload.BestEffort
	case 1:
		j.Class, j.Reserved = workload.SLO, true
	default:
		j.Class = workload.SLO
	}
	if j.Class == workload.SLO {
		j.Deadline = now + j.BaseRuntime + int64(4*in.next(12)<<(3*in.next(2)))
	}
	switch j.Type {
	case workload.Elastic:
		j.MinK = 1
	case workload.DataLocal:
		for n, lo := 0, in.next(nodes-j.K); n <= j.K; n++ {
			j.DataNodes = append(j.DataNodes, lo+n)
		}
	}
	return j, max(4, j.BaseRuntime+int64(4*(in.next(16)-1)))
}

// FuzzClassTableMatchesUncached: the class table against the scheduler that
// keeps nothing. The fuzzer's bytes choose a configuration (plan-ahead window,
// two shards, a MaxBatch that truncates) and then a run of events on a 12-node
// cluster: arrivals, early finishes, failures that kill a running job and
// resubmit it, a node withheld from the free set or given back with no job
// event, and cycles, in which jobs end on their own and SLO jobs past their
// last start are dropped. A scheduler with every cache on and one with
// DisableCompileCache see the same events, and every cycle they must make the
// same decisions — the same launches on the same nodes and the same drops, in
// the same order — and place only on nodes the cycle offered. The seed corpus
// (testdata/fuzz) holds runs in which classes are kept and replayed: overrunning
// best-effort gangs pin the release slices while SLO jobs with far deadlines
// wait, sharded, truncated, with finishes and failures; one in which both
// schedulers must drop a reserved job at its last start, which the blocked
// cluster cannot give it, in the same cycle; and seed-below-bar, in which five
// data-local SLO jobs defer behind the gangs and, on the cycle after their
// class is built, its shifted seed is feasible but strictly worse than the
// root rounding the solution adopted, so the component replays on the
// solver's proof (milp.Solution.SeedCannotChange), not on an equal seed. The
// fixed-point-* runs reach a cycle that planned nothing new, which the cached
// scheduler then repeats, and break it with one input each: an arrival; a
// node withheld and given back; a running job counting down to its estimate;
// a best-effort job past MaxBatch re-priced every cycle. Two more hold a
// withheld node, whose believed release slice doubles each cycle it stays
// withheld until it lies past the window: a completion on it
// (fixed-point-completion), and a start-now grant across two node groups that
// wants it (fixed-point-failed-commit), which is planned ahead instead, where
// no commit can fail. In every cycle of a run without shards, each start-now
// grant the extraction reaches must launch (commitCheck).
func FuzzClassTableMatchesUncached(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		gk, gv := cluster.GPUAttr()
		c := cluster.NewBuilder().AddRack("r0", 4, map[string]string{gk: gv}).AddRack("r1", 4, nil).AddRack("r2", 4, nil).Build()
		cfg := Config{CyclePeriod: 4, PlanAhead: int64(4 * (4 + in.next(5))), Shards: 2 * in.next(2)}
		if in.next(4) == 0 {
			cfg.MaxBatch = 3
		}
		if cfg.Shards == 0 {
			cfg.Tracer = trace.New(64).SetSink(&commitCheck{t: t})
		}
		uncached := cfg
		uncached.DisableCompileCache = true
		scheds := [2]*Scheduler{New(c, cfg), New(c, uncached)}

		type run struct {
			jobs  [2]*workload.Job // each scheduler's copy
			nodes []int
			end   int64
		}
		jobs := map[int][2]*workload.Job{} // every job submitted, by ID
		lasts := map[int]int64{}           // how long each job really runs
		running := map[int]*run{}
		free := c.All()
		withheld := bitset.New(c.N()) // idle nodes the cycles are not offered
		now, nextID := int64(0), 0
		submit := func(j [2]*workload.Job) {
			for i, s := range scheds {
				s.Submit(now, j[i])
			}
		}
		end := func(id int, resubmit bool) {
			r := running[id]
			delete(running, id)
			for _, n := range r.nodes {
				free.Add(n)
			}
			for i, s := range scheds {
				s.JobFinished(now, r.jobs[i])
			}
			if resubmit {
				submit(r.jobs)
			}
		}
		// pick returns the ID of a running job the input chooses, lowest ID
		// first, or false when nothing runs.
		pick := func() (int, bool) {
			if len(running) == 0 {
				return 0, false
			}
			ids := make([]int, 0, len(running))
			for id := range running {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids[in.next(len(ids))], true
		}
		cycle := func() {
			now += 4
			var done []int
			for id, r := range running {
				if r.end <= now {
					done = append(done, id)
				}
			}
			slices.Sort(done)
			for _, id := range done {
				end(id, false)
			}
			offer := free.Clone()
			offer.DifferenceWith(withheld)
			var res [2]sim.CycleResult
			for i, s := range scheds {
				res[i] = s.Cycle(now, offer.Clone())
			}
			if a, b := fuzzOutcome(res[0]), fuzzOutcome(res[1]); a != b {
				t.Fatalf("t=%d: the cached scheduler decided\n  %s\nthe uncached one\n  %s", now, a, b)
			}
			if scheds[0].Pending() != scheds[1].Pending() || scheds[0].Running() != scheds[1].Running() {
				t.Fatalf("t=%d: pending %d and %d, running %d and %d", now,
					scheds[0].Pending(), scheds[1].Pending(), scheds[0].Running(), scheds[1].Running())
			}
			assertTableLive(t, scheds[0], fmt.Sprintf("t=%d", now))
			for _, d := range res[0].Decisions {
				for _, n := range d.Nodes {
					if !offer.Contains(n) {
						t.Fatalf("t=%d: job %d placed on node %d, which is busy or was not offered", now, d.Job.ID, n)
					}
					offer.Remove(n)
					free.Remove(n)
				}
				running[d.Job.ID] = &run{jobs: jobs[d.Job.ID], nodes: d.Nodes, end: now + lasts[d.Job.ID]}
			}
		}

		for step := 0; len(in) > 0 && step < 48; step++ {
			switch in.next(9) {
			case 0, 1, 2:
				j, last := fuzzJob(&in, nextID, now, c.N())
				twin := *j
				twin.DataNodes = slices.Clone(j.DataNodes)
				jobs[nextID], lasts[nextID] = [2]*workload.Job{j, &twin}, last
				submit(jobs[nextID])
				nextID++
			case 3, 4: // an early finish, or a failure: killed and resubmitted
				if id, ok := pick(); ok {
					end(id, in.next(2) == 1)
				}
			case 8: // a node leaves the free set, or comes back, with no job event
				n := in.next(c.N())
				if withheld.Contains(n) {
					withheld.Remove(n)
				} else {
					withheld.Add(n)
				}
			default:
				cycle()
			}
		}
		for k := 0; k < 4; k++ {
			cycle()
		}
	})
}

// fuzzOutcome writes a cycle's decisions down in order.
func fuzzOutcome(res sim.CycleResult) string {
	var out []string
	for _, d := range res.Decisions {
		out = append(out, fmt.Sprintf("launch %d on %v", d.Job.ID, d.Nodes))
	}
	for _, j := range res.Dropped {
		out = append(out, fmt.Sprintf("drop %d", j.ID))
	}
	return fmt.Sprint(out)
}

// FuzzWithheldNodesFreeTheQueue: a liveness rule for nodes the caller
// withholds. The fuzzer's bytes choose a plan-ahead window of 2–8 slices, a set
// of nodes the cycles never offer though no known job runs there, and up to
// six jobs, submitted before the first cycle, of any type, class and width up
// to the whole 12-node cluster. Then cycles run with no arrival and no
// completion, at gap 0, for as long as some pending job has a start-now
// option (strlgen's request, as the scheduler generates it) that fits in the
// offered nodes, which stay offered and idle until something launches. Some
// job must launch within horizon + 2 cycles, on offered nodes: a withheld
// node's release slice doubles each cycle until it lies past the window, so a
// job that waits for it cannot hold the queue back for longer. The seed is
// TestWithheldNodesFreeTheQueue's scenario: a 12-wide reserved SLO job with a
// far deadline ahead of two 4-wide best-effort jobs of two slices, with two
// nodes withheld.
func FuzzWithheldNodesFreeTheQueue(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 2,
		0, 2, 1, 0, 1, 11, 1, 0, 12, // the SLO job
		0, 0, 1, 0, 0, 0, 4, // a best-effort job
		0, 0, 1, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		gk, gv := cluster.GPUAttr()
		c := cluster.NewBuilder().AddRack("r0", 4, map[string]string{gk: gv}).AddRack("r1", 4, nil).AddRack("r2", 4, nil).Build()
		horizon := int64(2 + in.next(7))
		sched := New(c, Config{CyclePeriod: 4, PlanAhead: 4 * horizon, Gap: 0})
		gen := strlgen.New(c, strlgen.Default(4, 4*horizon))
		free := c.All()
		for n := 0; n < c.N(); n++ {
			if in.next(4) == 0 {
				free.Remove(n)
			}
		}
		var pending []*workload.Job
		for id, last := 0, in.next(6); id <= last; id++ {
			j, _ := fuzzJob(&in, id, 0, c.N())
			j.K = max(j.K, in.next(c.N()+1))
			pending = append(pending, j)
			sched.Submit(0, j)
		}
		startsNow := func(now int64, j *workload.Job) bool {
			req := gen.Generate(now, j)
			return req != nil && slices.ContainsFunc(req.Options, func(o strlgen.Option) bool {
				return o.Leaf.Start == 0 && o.Leaf.Set.IntersectCount(free) >= o.Leaf.K
			})
		}
		for cycle := int64(0); cycle < horizon+2; cycle++ {
			now := 4 * cycle
			if !slices.ContainsFunc(pending, func(j *workload.Job) bool { return startsNow(now, j) }) {
				return // no start-now option fits: the rule asks nothing
			}
			res := sched.Cycle(now, free)
			for _, d := range res.Decisions {
				for _, n := range d.Nodes {
					if !free.Contains(n) {
						t.Fatalf("cycle %d: job %d launched on node %d, which was not offered", cycle, d.Job.ID, n)
					}
				}
			}
			if len(res.Decisions) > 0 {
				return
			}
			pending = slices.DeleteFunc(pending, func(j *workload.Job) bool { return slices.Contains(res.Dropped, j) })
		}
		t.Fatalf("nothing launched in %d cycles on offered nodes %v, though a pending job could start now there", horizon+2, free)
	})
}
