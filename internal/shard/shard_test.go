package shard

import (
	"reflect"
	"sync"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/strl"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/workload"
)

// hetCluster builds 4 plain racks and 2 gpu racks of 4 nodes each.
func hetCluster() *cluster.Cluster {
	gk, gv := cluster.GPUAttr()
	b := cluster.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddRack("plain"+string(rune('0'+i)), 4, nil)
	}
	b.AddRack("gpu0", 4, map[string]string{gk: gv})
	b.AddRack("gpu1", 4, map[string]string{gk: gv})
	return b.Build()
}

// TestByProfilePartitionIsDisjointCover: every node lands in exactly one
// shard, and repeated calls return the identical partition (determinism is
// what keeps the per-shard fingerprint caches valid).
func TestByProfilePartitionIsDisjointCover(t *testing.T) {
	c := hetCluster()
	for _, n := range []int{1, 2, 3, 4, 6} {
		sets := ByProfile{}.Partition(c, n)
		if len(sets) != n {
			t.Fatalf("n=%d: got %d sets", n, len(sets))
		}
		seen := bitset.New(c.N())
		total := 0
		for _, s := range sets {
			total += s.Count()
			union := seen.Clone()
			union.UnionWith(s)
			if union.Count() != seen.Count()+s.Count() {
				t.Errorf("n=%d: shards overlap", n)
			}
			seen = union
		}
		if total != c.N() {
			t.Errorf("n=%d: shards cover %d of %d nodes", n, total, c.N())
		}
		again := ByProfile{}.Partition(c, n)
		for i := range sets {
			if !reflect.DeepEqual(sets[i].Indices(), again[i].Indices()) {
				t.Errorf("n=%d: partition not deterministic (shard %d differs)", n, i)
			}
		}
	}
}

// TestByProfileBalancesHardwareClasses: with 2 shards over 4 plain + 2 gpu
// racks, each shard must receive a proportional slice of each profile (2
// plain racks and 1 gpu rack), and whole racks must stay together.
func TestByProfileBalancesHardwareClasses(t *testing.T) {
	c := hetCluster()
	sets := ByProfile{}.Partition(c, 2)
	gk, gv := cluster.GPUAttr()
	gpu := c.WithAttr(gk, gv)
	for i, s := range sets {
		if got := s.IntersectCount(gpu); got != 4 {
			t.Errorf("shard %d holds %d gpu nodes, want 4 (one whole gpu rack)", i, got)
		}
		if s.Count() != c.N()/2 {
			t.Errorf("shard %d holds %d nodes, want %d", i, s.Count(), c.N()/2)
		}
	}
	// Whole racks: every rack set is a subset of exactly one shard.
	for _, rack := range c.Racks() {
		rs := c.Rack(rack)
		owners := 0
		for _, s := range sets {
			if rs.IntersectCount(s) == rs.Count() {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("rack %s split across shards", rack)
		}
	}
}

// TestByProfileFallsBackToRanges: fewer racks than shards cannot deal whole
// racks; the partition degrades to contiguous node-ID ranges that still
// cover disjointly.
func TestByProfileFallsBackToRanges(t *testing.T) {
	c := cluster.NewBuilder().AddRack("r0", 6, nil).Build()
	sets := ByProfile{}.Partition(c, 3)
	for i, want := range [][]int{{0, 1}, {2, 3}, {4, 5}} {
		if got := sets[i].Indices(); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d = %v, want %v", i, got, want)
		}
	}
}

// mkReq builds a request with a single option over the given node set.
func mkReq(id, k int, set *bitset.Set, preferred bool) *strlgen.Request {
	return &strlgen.Request{
		Job: &workload.Job{ID: id, K: k},
		Options: []strlgen.Option{{
			Key: "opt", Preferred: preferred,
			Leaf: strl.NCk{Set: set, K: k},
		}},
	}
}

// TestAssignSingleShardIsZero pins the parity early-out: with one shard every
// assignment is class 0 and nothing spans — even a request no node set can
// satisfy (which would otherwise route to the arbitrator and force-merge
// components, breaking the single-shard ≡ monolithic property).
func TestAssignSingleShardIsZero(t *testing.T) {
	all := bitset.New(8)
	all.Fill()
	sets := []*bitset.Set{all}
	reqs := []*strlgen.Request{
		mkReq(0, 2, all, true),
		mkReq(1, 99, all, true), // unsatisfiable anywhere
	}
	assign, spanning := Assign(sets, reqs)
	if spanning != 0 {
		t.Errorf("spanning = %d, want 0 with a single shard", spanning)
	}
	for i, a := range assign {
		if a != 0 {
			t.Errorf("req %d assigned to class %d, want 0", i, a)
		}
	}
}

// TestAssignRoutesAndDetectsSpanning: a request satisfiable only in shard 1
// goes there; one satisfiable in both ties by job ID; a gang wider than any
// shard routes to the arbitrator class.
func TestAssignRoutesAndDetectsSpanning(t *testing.T) {
	s0, s1 := bitset.New(8), bitset.New(8)
	for n := 0; n < 4; n++ {
		s0.Add(n)
		s1.Add(n + 4)
	}
	all := bitset.New(8)
	all.Fill()
	right := bitset.New(8)
	for n := 4; n < 8; n++ {
		right.Add(n)
	}
	sets := []*bitset.Set{s0, s1}
	reqs := []*strlgen.Request{
		mkReq(0, 3, right, true), // only shard 1 can hold it
		mkReq(2, 2, all, true),   // ties; even ID -> shard 0
		mkReq(3, 2, all, true),   // ties; odd ID -> shard 1
		mkReq(4, 6, all, true),   // wider than any shard -> arbitrator
	}
	assign, spanning := Assign(sets, reqs)
	if want := []int{1, 0, 1, 2}; !reflect.DeepEqual(assign, want) {
		t.Errorf("assign = %v, want %v", assign, want)
	}
	if spanning != 1 {
		t.Errorf("spanning = %d, want 1", spanning)
	}
}

// TestStateEpochProtocol: bumps advance only the listed nodes, Moved and
// MovedSince compare against a caller-held snapshot, and a fresh snapshot
// clears the diff.
func TestStateEpochProtocol(t *testing.T) {
	st := NewState(4)
	snap := st.Snapshot(nil)
	if moved := st.MovedSince(snap, nil); len(moved) != 0 {
		t.Fatalf("fresh state reports moved nodes %v", moved)
	}
	st.Bump([]int{1, 3})
	if !st.Moved(1, snap) || !st.Moved(3, snap) || st.Moved(0, snap) {
		t.Error("Moved does not match the bumped set")
	}
	if moved := st.MovedSince(snap, nil); !reflect.DeepEqual(moved, []int{1, 3}) {
		t.Errorf("MovedSince = %v, want [1 3]", moved)
	}
	snap = st.Snapshot(snap)
	if moved := st.MovedSince(snap, nil); len(moved) != 0 {
		t.Errorf("re-snapshot still reports moved nodes %v", moved)
	}
}

// TestStateConcurrentAccess hammers the epoch state from concurrent
// planner-like goroutines (snapshot + diff) and committer-like goroutines
// (bumps); the race detector enforces the synchronization contract.
func TestStateConcurrentAccess(t *testing.T) {
	st := NewState(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			nodes := []int{g, g + 16, g + 32}
			for i := 0; i < 500; i++ {
				st.Bump(nodes)
			}
		}(g)
		go func() {
			defer wg.Done()
			var snap []uint64
			var buf []int
			for i := 0; i < 500; i++ {
				snap = st.Snapshot(snap)
				buf = st.MovedSince(snap, buf)
			}
		}()
	}
	wg.Wait()
	snap := st.Snapshot(nil)
	for _, g := range []int{0, 1, 2, 3} {
		if snap[g] != 500 {
			t.Errorf("node %d epoch = %d, want 500", g, snap[g])
		}
	}
}
