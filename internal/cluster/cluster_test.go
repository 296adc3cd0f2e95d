package cluster

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tetrisched/internal/bitset"
)

func TestBuilderAndLookups(t *testing.T) {
	c := NewBuilder().
		AddRack("r0", 2, map[string]string{"gpu": "true"}).
		AddRack("r1", 3, nil).
		AddNode("special", "r1", map[string]string{"ssd": "true"}).
		Build()
	if c.N() != 6 {
		t.Fatalf("N = %d, want 6", c.N())
	}
	if got := c.Rack("r0").Count(); got != 2 {
		t.Errorf("rack r0 size = %d", got)
	}
	if got := c.Rack("r1").Count(); got != 4 {
		t.Errorf("rack r1 size = %d", got)
	}
	if c.Rack("nope") != nil {
		t.Errorf("unknown rack should be nil")
	}
	if got := c.WithAttr("gpu", "true").Count(); got != 2 {
		t.Errorf("gpu nodes = %d", got)
	}
	if got := c.WithAttr("ssd", "true").Count(); got != 1 {
		t.Errorf("ssd nodes = %d", got)
	}
	if got := c.WithAttr("none", "x").Count(); got != 0 {
		t.Errorf("missing attr nodes = %d", got)
	}
	if got := c.All().Count(); got != 6 {
		t.Errorf("all = %d", got)
	}
	if n := c.Node(0); n.Rack != "r0" || n.Name != "r0/n0" {
		t.Errorf("node 0 = %+v", n)
	}
	if got := len(c.Racks()); got != 2 {
		t.Errorf("racks = %v", c.Racks())
	}
}

func TestStandardConfigs(t *testing.T) {
	c := RC256(true)
	if c.N() != 256 {
		t.Fatalf("RC256 N = %d", c.N())
	}
	if got := c.WithAttr(GPUAttr()).Count(); got != 64 {
		t.Errorf("RC256 gpu nodes = %d, want 64", got)
	}
	if len(c.Racks()) != 8 {
		t.Errorf("RC256 racks = %d", len(c.Racks()))
	}
	c80 := RC80(false)
	if c80.N() != 80 {
		t.Fatalf("RC80 N = %d", c80.N())
	}
	if got := c80.WithAttr(GPUAttr()).Count(); got != 0 {
		t.Errorf("homogeneous RC80 gpu nodes = %d, want 0", got)
	}
}

func TestPartitionSimple(t *testing.T) {
	// Universe {0..5}; eqsets {0,1,2} and {2,3} → groups {0,1},{2},{3},{4,5}.
	u := bitset.New(6)
	u.Fill()
	e1 := bitset.FromIndices(6, 0, 1, 2)
	e2 := bitset.FromIndices(6, 2, 3)
	p := Partition(u, []*bitset.Set{e1, e2})
	if len(p.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(p.Groups))
	}
	// Cover of e1 must union to exactly e1.
	for i, es := range []*bitset.Set{e1, e2} {
		un := bitset.New(6)
		for _, gi := range p.Cover[i] {
			un.UnionWith(p.Groups[gi])
		}
		if !un.Equal(es) {
			t.Errorf("cover of eqset %d = %v, want %v", i, un, es)
		}
	}
}

func TestPartitionProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		u := bitset.New(n)
		u.Fill()
		k := 1 + r.Intn(5)
		eqsets := make([]*bitset.Set, k)
		for i := range eqsets {
			s := bitset.New(n)
			for j := 0; j < n; j++ {
				if r.Intn(3) == 0 {
					s.Add(j)
				}
			}
			eqsets[i] = s
		}
		p := Partition(u, eqsets)
		// Property 1: groups are disjoint and union to the universe.
		un := bitset.New(n)
		total := 0
		for _, g := range p.Groups {
			if g.Empty() {
				return false // no empty groups
			}
			if un.Intersects(g) {
				return false // disjoint
			}
			un.UnionWith(g)
			total += g.Count()
		}
		if !un.Equal(u) || total != n {
			return false
		}
		// Property 2: every eqset ∩ universe is an exact union of its cover.
		for i, es := range eqsets {
			cov := bitset.New(n)
			for _, gi := range p.Cover[i] {
				cov.UnionWith(p.Groups[gi])
			}
			if !cov.Equal(es.Intersect(u)) {
				return false
			}
		}
		// Property 3: every group is entirely inside or outside each eqset.
		for _, g := range p.Groups {
			for _, es := range eqsets {
				ic := g.IntersectCount(es)
				if ic != 0 && ic != g.Count() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPartitionRestrictedUniverse(t *testing.T) {
	// Eqsets may reference nodes outside the universe (e.g. busy nodes);
	// cover must equal the intersection with the universe.
	u := bitset.FromIndices(8, 0, 1, 2, 3)
	es := bitset.FromIndices(8, 2, 3, 4, 5)
	p := Partition(u, []*bitset.Set{es})
	cov := bitset.New(8)
	for _, gi := range p.Cover[0] {
		cov.UnionWith(p.Groups[gi])
	}
	want := bitset.FromIndices(8, 2, 3)
	if !cov.Equal(want) {
		t.Errorf("cover = %v, want %v", cov, want)
	}
}

// partitionReference is the partitioner as it was before it learned to skip
// sets it has already refined against and to test before it copies: refine
// against every entry in turn, cloning for every (set, group) pair. Kept as
// the reference the production Partition must reproduce exactly.
func partitionReference(universe *bitset.Set, eqsets []*bitset.Set) *Partitioning {
	groups := []*bitset.Set{universe.Clone()}
	for _, es := range eqsets {
		var next []*bitset.Set
		for _, g := range groups {
			in := g.Intersect(es)
			if in.Empty() {
				next = append(next, g)
				continue
			}
			out := g.Difference(es)
			next = append(next, in)
			if !out.Empty() {
				next = append(next, out)
			}
		}
		groups = next
	}
	p := &Partitioning{Groups: groups, Cover: make([][]int, len(eqsets))}
	for i, es := range eqsets {
		for gi, g := range groups {
			if g.SubsetOf(es) && !g.Empty() {
				p.Cover[i] = append(p.Cover[i], gi)
			}
		}
	}
	return p
}

// TestPartitionMatchesReference: same groups in the same order and the same
// covers as the reference, on random inputs drawn the way a cycle's are — a
// few distinct sets, each listed many times, by the same pointer or as an
// equal copy, over a universe that may be missing nodes.
func TestPartitionMatchesReference(t *testing.T) {
	var reused Partitioning
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(150)
		u := bitset.New(n)
		for j := 0; j < n; j++ {
			if r.Intn(8) != 0 {
				u.Add(j)
			}
		}
		distinct := make([]*bitset.Set, 1+r.Intn(6))
		for i := range distinct {
			s := bitset.New(n)
			lo, hi := r.Intn(n), r.Intn(n+1)
			for j := 0; j < n; j++ {
				if (j >= lo && j < hi) || r.Intn(10) == 0 {
					s.Add(j)
				}
			}
			distinct[i] = s // may be empty, may be everything
		}
		eqsets := make([]*bitset.Set, r.Intn(40))
		for i := range eqsets {
			eqsets[i] = distinct[r.Intn(len(distinct))]
			if r.Intn(3) == 0 {
				eqsets[i] = eqsets[i].Clone()
			}
		}
		// A Partitioning that has held other partitions, of other universes,
		// refines to the same thing in the memory it has.
		reused.Refine(u, eqsets)
		want := partitionReference(u, eqsets)
		return samePartition(Partition(u, eqsets), want, u, eqsets) && samePartition(&reused, want, u, eqsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// samePartition reports whether got has want's groups, in order, and covers,
// and no group that is one of the inputs.
func samePartition(got, want *Partitioning, u *bitset.Set, eqsets []*bitset.Set) bool {
	if len(got.Groups) != len(want.Groups) || len(got.Cover) != len(want.Cover) {
		return false
	}
	for i := range want.Groups {
		if !got.Groups[i].Equal(want.Groups[i]) {
			return false
		}
		for _, in := range append([]*bitset.Set{u}, eqsets...) {
			if got.Groups[i] == in {
				return false // a group must never alias an input
			}
		}
	}
	for i := range want.Cover {
		if !slices.Equal(got.Cover[i], want.Cover[i]) {
			return false
		}
	}
	return true
}

// TestPartitionAllocs budgets a cycle-shaped call: 600 leaves over six
// distinct sets that split a 256-node universe into six groups. The
// allocations must follow the distinct sets and the splits, not the leaves:
// the reference makes over 15000 here, this 40.
func TestPartitionAllocs(t *testing.T) {
	const n = 256
	u := bitset.New(n)
	u.Fill()
	var distinct []*bitset.Set
	for i := 0; i < 6; i++ {
		s := bitset.New(n)
		for j := i * 32; j < n; j++ {
			s.Add(j)
		}
		distinct = append(distinct, s)
	}
	eqsets := make([]*bitset.Set, 600)
	for i := range eqsets {
		eqsets[i] = distinct[i%len(distinct)]
		if i%5 == 0 {
			eqsets[i] = eqsets[i].Clone() // equal content behind another pointer
		}
	}
	if got := len(Partition(u, eqsets).Groups); got != 6 {
		t.Fatalf("groups = %d, want 6", got)
	}
	const budget = 48
	avg := testing.AllocsPerRun(50, func() { Partition(u, eqsets) })
	if avg > budget {
		t.Errorf("Partition allocates %v times for 6 distinct sets, budget %d", avg, budget)
	}
	t.Logf("allocations: %v, reference %v", avg, testing.AllocsPerRun(5, func() { partitionReference(u, eqsets) }))
	// The into-form, which a compiler.Scratch uses cycle after cycle: none.
	var p Partitioning
	p.Refine(u, eqsets)
	if avg := testing.AllocsPerRun(50, func() { p.Refine(u, eqsets) }); avg != 0 || len(p.Groups) != 6 {
		t.Errorf("a warm Refine allocates %v times for %d groups, want 0 and 6", avg, len(p.Groups))
	}
}

// TestRefineCoverGrowsGeometrically: a Partitioning refined cycle after cycle
// against a list of sets that gains one each cycle, as a growing backlog's
// leaves do, reallocates its Cover a logarithmic number of times, not once a
// cycle, and still covers every set.
func TestRefineCoverGrowsGeometrically(t *testing.T) {
	const n, cycles = 64, 1000
	u := bitset.New(n)
	u.Fill()
	var p Partitioning
	var eqsets []*bitset.Set
	regrown := 0
	for c := 0; c < cycles; c++ {
		s := bitset.New(n)
		s.Add(c % n)
		eqsets = append(eqsets, s)
		before := cap(p.Cover)
		p.Refine(u, eqsets)
		if cap(p.Cover) != before {
			regrown++
		}
		if len(p.Cover) != len(eqsets) || len(p.Cover[c]) != 1 || !p.Groups[p.Cover[c][0]].Equal(s) {
			t.Fatalf("cycle %d: %d covers for %d sets, the last %v", c, len(p.Cover), len(eqsets), p.Cover[c])
		}
	}
	if limit := bits.Len(cycles) + 1; regrown > limit {
		t.Errorf("Cover was reallocated %d times over %d cycles of one more set each, want at most %d", regrown, cycles, limit)
	}
}
