package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/compiler"
	"tetrisched/internal/sim"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// twoRackCluster is the canonical sharding fixture: two identical 4-node
// racks, which ByProfile deals into two 4-node shards (one rack each).
func twoRackCluster() *cluster.Cluster {
	return cluster.NewBuilder().AddRack("r0", 4, nil).AddRack("r1", 4, nil).Build()
}

// be builds one best-effort unconstrained gang.
func be(id, k int, runtime int64) *workload.Job {
	return &workload.Job{
		ID: id, Class: workload.BestEffort, Type: workload.Unconstrained,
		K: k, BaseRuntime: runtime, Slowdown: 1, Submit: 0,
	}
}

// TestShardConflictDetectionAndRequeue crafts a cross-shard double-claim:
// four 3-node gangs on an 8-node cluster split into two shards. Each shard
// plans its two gangs against an optimistic full-supply copy of the shared
// "any node" row (12 nodes of demand against 8 of supply in total), so the
// commit loop must find the late gangs' nodes claimed by commits that beat
// them, count the conflicts, and requeue the losers intact.
func TestShardConflictDetectionAndRequeue(t *testing.T) {
	c := twoRackCluster()
	tr := trace.New(1 << 10)
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0, Shards: 2, Tracer: tr})
	jobs := []*workload.Job{be(0, 3, 8), be(1, 3, 8), be(2, 3, 8), be(3, 3, 8)}
	for _, j := range jobs {
		sched.Submit(0, j)
	}
	free := bitset.New(c.N())
	free.Fill()
	res := sched.Cycle(0, free)

	// The shared free set admits at most two 3-node gangs; the rest must
	// requeue. No decision may ever be a partial gang.
	launched := bitset.New(c.N())
	for _, d := range res.Decisions {
		if len(d.Nodes) != d.Job.K {
			t.Errorf("job %d launched with %d nodes, want exactly K=%d (gangs are atomic)",
				d.Job.ID, len(d.Nodes), d.Job.K)
		}
		for _, n := range d.Nodes {
			if launched.Contains(n) {
				t.Errorf("node %d double-allocated across commits", n)
			}
			launched.Add(n)
		}
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("launched %d gangs, want 2 (8 nodes / K=3)", len(res.Decisions))
	}
	st := sched.ShardStatsSnapshot()
	if st.Shards != 2 || st.Cycles != 1 {
		t.Errorf("shard stats shards=%d cycles=%d, want 2/1", st.Shards, st.Cycles)
	}
	if st.Conflicts < 1 {
		t.Errorf("Conflicts = %d, want >= 1: the losing gangs' nodes were claimed by "+
			"earlier commits of the cycle", st.Conflicts)
	}
	if st.Requeued != st.Conflicts {
		t.Errorf("Requeued = %d, Conflicts = %d; every detected conflict requeues its job", st.Requeued, st.Conflicts)
	}
	// Losers stay pending intact.
	if sched.Pending() != 2 {
		t.Fatalf("Pending = %d after the conflict cycle, want the 2 losing gangs", sched.Pending())
	}
	// And the conflict instants carry the losing shard.
	conflictEvents := 0
	for _, e := range tr.Snapshot() {
		if e.Name == "shard.conflict" {
			conflictEvents++
		}
	}
	if int64(conflictEvents) != st.Conflicts {
		t.Errorf("recorded %d shard.conflict trace instants, want %d", conflictEvents, st.Conflicts)
	}
}

// TestShardLoserKeepsQueuePosition pins the requeue ordering contract: a gang
// that loses an optimistic commit race stays in the pending queue at its
// (priority, Submit, AdmitSeq, ID) position — a later arrival, even one
// admitted before the next cycle runs, files behind it.
func TestShardLoserKeepsQueuePosition(t *testing.T) {
	c := twoRackCluster()
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0, Shards: 2})
	for id := 0; id < 4; id++ {
		sched.Submit(0, be(id, 3, 8))
	}
	free := bitset.New(c.N())
	free.Fill()
	sched.Cycle(0, free)
	if sched.Pending() != 2 {
		t.Fatalf("Pending = %d after the conflict cycle, want 2 losers", sched.Pending())
	}
	losers := make([]int, 0, 2)
	for _, j := range sched.orderedPending() {
		losers = append(losers, j.ID)
	}

	// A same-class arrival submitted later must sort behind both losers.
	late := be(9, 1, 8)
	late.Submit = 4
	sched.Submit(4, late)
	got := make([]int, 0, 3)
	for _, j := range sched.orderedPending() {
		got = append(got, j.ID)
	}
	want := append(append([]int{}, losers...), 9)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pending order after requeue = %v, want %v (losers keep their queue position)", got, want)
	}
}

// TestShardArbitratorAtomicity pins the gang arbitrator: a 6-node gang on two
// 4-node shards fits in neither, so it is serialized through the arbitrator
// component. When per-shard commits have already claimed its nodes the gang
// defers whole — never a partial launch — and once the cluster drains it
// launches with exactly its full K.
func TestShardArbitratorAtomicity(t *testing.T) {
	c := twoRackCluster()
	sched := New(c, Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0, Shards: 2})
	shardJobs := []*workload.Job{be(0, 3, 8), be(1, 3, 8)}
	gang := be(2, 6, 8)
	for _, j := range shardJobs {
		sched.Submit(0, j)
	}
	sched.Submit(0, gang)
	free := bitset.New(c.N())
	free.Fill()
	res := sched.Cycle(0, free)

	st := sched.ShardStatsSnapshot()
	if st.Spanning != 1 {
		t.Errorf("Spanning = %d, want 1: the 6-node gang fits in no 4-node shard", st.Spanning)
	}
	for _, d := range res.Decisions {
		if d.Job.ID == gang.ID {
			t.Fatalf("gang launched in the contended cycle with %d nodes; the shard gangs own 6 of 8", len(d.Nodes))
		}
		if len(d.Nodes) != d.Job.K {
			t.Errorf("job %d launched with %d nodes, want K=%d", d.Job.ID, len(d.Nodes), d.Job.K)
		}
	}
	if st.ArbDeferred < 1 {
		t.Errorf("ArbDeferred = %d, want >= 1: the gang must defer whole", st.ArbDeferred)
	}
	if st.ArbLaunched != 0 {
		t.Errorf("ArbLaunched = %d, want 0 in the contended cycle", st.ArbLaunched)
	}
	found := false
	for _, j := range sched.orderedPending() {
		if j.ID == gang.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("gang neither launched nor pending; arbitrator atomicity broken")
	}

	// Drain the shard gangs; the arbitrator gang must now launch atomically.
	for _, j := range shardJobs {
		sched.JobFinished(8, j)
	}
	free = bitset.New(c.N())
	free.Fill()
	for now := int64(8); now <= 24 && sched.Pending() > 0; now += 4 {
		res = sched.Cycle(now, free)
		for _, d := range res.Decisions {
			if d.Job.ID != gang.ID {
				t.Fatalf("unexpected launch of job %d on the drained cluster", d.Job.ID)
			}
			if len(d.Nodes) != gang.K {
				t.Fatalf("gang launched with %d nodes, want the full K=%d", len(d.Nodes), gang.K)
			}
		}
	}
	if sched.Pending() != 0 {
		t.Fatal("gang never launched on the drained cluster")
	}
	if st := sched.ShardStatsSnapshot(); st.ArbLaunched != 1 {
		t.Errorf("ArbLaunched = %d, want 1", st.ArbLaunched)
	}
}

// TestShardedCycleConcurrency runs a 4-shard simulation end to end — under
// the race detector this exercises the concurrent per-shard sub-solves, and
// every invariant the driver checks (no double allocation, gang atomicity)
// must hold.
func TestShardedCycleConcurrency(t *testing.T) {
	c := cluster.RC80(true)
	jobs, err := workload.Generate(workload.GSHET(30), c, 7)
	if err != nil {
		t.Fatal(err)
	}
	sched := New(c, Config{PlanAhead: 48, Shards: 4})
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	st := sched.ShardStatsSnapshot()
	if st.Cycles == 0 {
		t.Error("sharded run recorded no shard cycles")
	}
	done := 0
	for i := range res.Stats {
		if res.Stats[i].Finish > 0 || res.Stats[i].Dropped {
			done++
		}
	}
	if done != len(jobs) {
		t.Errorf("%d of %d jobs reached a terminal state", done, len(jobs))
	}
}

// wouldPlace reports whether a start-now grant could be satisfied from set.
// Partition groups are disjoint, so per-group counting needs no consumption.
func wouldPlace(comp *compiler.Compiled, g compiler.LeafGrant, set *bitset.Set) bool {
	for _, gc := range g.Counts {
		if comp.Part.Groups[gc.Group].IntersectCount(set) < gc.N {
			return false
		}
	}
	return true
}

// grantCheck drives a Scheduler under sim.Run. Each cycle it withholds some
// idle nodes for one to four cycles, and after the cycle it checks every
// start-now grant of the class table against the free set the cycle was
// offered.
type grantCheck struct {
	*Scheduler
	t        *testing.T
	rng      *rand.Rand
	until    []int64 // per node: the time it is withheld until
	withheld int     // node-cycles withheld
	grants   int     // start-now grants checked
}

func (p *grantCheck) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	offer := free.Clone()
	free.ForEach(func(n int) bool {
		if p.until[n] <= now && p.rng.Intn(10) == 0 {
			p.until[n] = now + int64(1+p.rng.Intn(4))*p.CyclePeriod()
		}
		if p.until[n] > now {
			offer.Remove(n)
			p.withheld++
		}
		return true
	})
	cycle := p.cycle
	res := p.Scheduler.Cycle(now, offer.Clone())
	if p.cycle == cycle {
		return res // no global cycle ran: the class table is last cycle's
	}
	for _, cl := range p.classes {
		for i := range cl.ents {
			for _, g := range cl.ents[i].grants {
				if g.Start != 0 {
					continue
				}
				p.grants++
				if !wouldPlace(cl.comp, g, offer) {
					p.t.Fatalf("t=%d: a start-now grant of job %d does not fit the offered free set",
						now, cl.reqs[g.Job].Job.ID)
				}
			}
		}
	}
	return res
}

// TestStartNowGrantsFitTheFreeSet is the premise of the sharded commit: a
// start-now grant is planned only on nodes at release slice 0, all of them in
// the cycle's free set, so every such grant fits that set by itself. A commit
// that fails can then only have lost its nodes to an earlier commit of the
// same cycle, which is why the commit loop counts every failure as a conflict
// without testing it. The runs overrun their estimates and withhold idle
// nodes, monolithic and at 2 and 4 shards.
func TestStartNowGrantsFitTheFreeSet(t *testing.T) {
	c := cluster.RC80(true)
	for seed := int64(1); seed <= 3; seed++ {
		mix := workload.GSHET(60)
		mix.TargetUtil = 1.5 // a backlog, so the shards' plans collide
		mix.EstErr = -0.5    // jobs run twice their estimate
		jobs, err := workload.Generate(mix, c, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 2, 4} {
			p := &grantCheck{Scheduler: New(c, Config{PlanAhead: 48, Shards: shards}), t: t,
				rng: rand.New(rand.NewSource(seed)), until: make([]int64, c.N())}
			if _, err := sim.Run(sim.Config{Cluster: c, Jobs: cloneJobs(jobs), Scheduler: p}); err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if p.grants == 0 || p.withheld == 0 {
				t.Fatalf("seed %d shards %d: %d grants checked, %d node-cycles withheld; the run exercised nothing",
					seed, shards, p.grants, p.withheld)
			}
		}
	}
}

// TestShardAssignSpanPerBuild: the shard.assign span times the routing of a
// rebuilt class, so a traced 4-shard scheduler records one per cycle that
// compiles its class and none in a cycle that keeps it.
func TestShardAssignSpanPerBuild(t *testing.T) {
	tr := trace.New(1 << 12)
	sched := steadyScheduler(Config{CyclePeriod: 4, PlanAhead: 16, Gap: 0, Shards: 4, Tracer: tr})
	spans := func() (n int) {
		for _, e := range tr.Snapshot() {
			if e.Name == "shard.assign" {
				n++
				if e.NArg != 3 || e.Args[0].Key != "shards" || e.Args[0].Int() != 4 ||
					e.Args[1].Key != "spanning" || e.Args[2].Key != "components" {
					t.Fatalf("shard.assign args = %+v, want shards=4, spanning, components", e.Args[:e.NArg])
				}
			}
		}
		return n
	}
	built, kept := 0, 0
	for k := 0; k < 8; k++ {
		now := int64(4 * k)
		if k == 5 { // an arrival forces the class to be rebuilt
			sched.Submit(now, &workload.Job{ID: 2, Class: workload.SLO, Reserved: true, Type: workload.DataLocal,
				Submit: now, K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 300, DataNodes: []int{0, 1, 2, 3}})
		}
		compiled, before := sched.Stats.CompileJobs, spans()
		sched.Cycle(now, bitset.New(8))
		want := 0
		if sched.Stats.CompileJobs > compiled {
			want, built = 1, built+1
		} else {
			kept++
		}
		if got := spans() - before; got != want {
			t.Errorf("cycle %d recorded %d shard.assign spans, want %d", k, got, want)
		}
	}
	if built < 2 || kept < 2 {
		t.Fatalf("%d cycles rebuilt the class and %d kept it; the test needs at least two of each", built, kept)
	}
}
