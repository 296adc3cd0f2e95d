// Package cluster models the static structure of a heterogeneous cluster:
// nodes grouped into racks and labeled with attributes (e.g. gpu=true), plus
// the dynamic equivalence-set partitioner that TetriSched uses to minimize
// the number of MILP partition variables (paper §4.2 and TR Appendix A).
package cluster

import (
	"maps"
	"sort"
	"strconv"

	"tetrisched/internal/bitset"
	"tetrisched/internal/slab"
)

// NodeID indexes a node within its cluster; IDs are dense in [0, N).
type NodeID int

// Node is one machine. Attrs is shared: every node of a rack added by
// AddRack holds the same map, so callers must treat it as read-only.
type Node struct {
	ID    NodeID
	Name  string
	Rack  string
	Attrs map[string]string
}

// Cluster is an immutable description of the machines available to the
// scheduler.
type Cluster struct {
	nodes  []Node
	racks  []string
	byRack map[string]*bitset.Set
	byAttr map[string]*bitset.Set // key "k=v"
	all    *bitset.Set
}

// Builder assembles a Cluster rack by rack.
type Builder struct {
	nodes  []Node
	attrs  []map[string]string // one copy per AddRack or AddNode call that had attributes
	attrOf []int32             // attrOf[i]: node i's map in attrs, or -1 for none
}

// NewBuilder returns an empty cluster builder.
func NewBuilder() *Builder { return &Builder{} }

// AddRack appends a rack of n nodes, all carrying the given attributes: one
// copy of attrs, shared among them. Node names are generated as
// rack/node-index.
func (b *Builder) AddRack(rack string, n int, attrs map[string]string) *Builder {
	if n <= 0 {
		return b
	}
	a := b.addAttrs(attrs)
	buf := make([]byte, 0, n*(len(rack)+4))
	for i := 0; i < n; i++ {
		buf = append(buf, rack...)
		buf = append(buf, "/n"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	names := string(buf)
	lo, digits, next := 0, 1, 10
	for i := 0; i < n; i++ {
		if i == next {
			digits, next = digits+1, next*10
		}
		hi := lo + len(rack) + len("/n") + digits
		b.addNode(names[lo:hi], rack, a)
		lo = hi
	}
	return b
}

// AddNode appends a single node with its own copy of attrs.
func (b *Builder) AddNode(name, rack string, attrs map[string]string) *Builder {
	b.addNode(name, rack, b.addAttrs(attrs))
	return b
}

// addAttrs keeps a copy of attrs and returns its index, or -1 if attrs is
// empty.
func (b *Builder) addAttrs(attrs map[string]string) int32 {
	if len(attrs) == 0 {
		return -1
	}
	b.attrs = append(b.attrs, maps.Clone(attrs))
	return int32(len(b.attrs) - 1)
}

func (b *Builder) addNode(name, rack string, a int32) {
	var attrs map[string]string
	if a >= 0 {
		attrs = b.attrs[a]
	}
	b.nodes = append(b.nodes, Node{ID: NodeID(len(b.nodes)), Name: name, Rack: rack, Attrs: attrs})
	b.attrOf = append(b.attrOf, a)
}

// Build freezes the builder into a Cluster. Each attribute map's "k=v" sets
// are looked up once, and every node is then added to its rack's set and to
// its map's sets.
func (b *Builder) Build() *Cluster {
	n := len(b.nodes)
	c := &Cluster{
		nodes:  b.nodes,
		byRack: make(map[string]*bitset.Set),
		byAttr: make(map[string]*bitset.Set),
		all:    bitset.New(n),
	}
	c.all.Fill()
	attrSets := make([][]*bitset.Set, len(b.attrs))
	for a, attrs := range b.attrs {
		for k, v := range attrs {
			key := k + "=" + v
			as, ok := c.byAttr[key]
			if !ok {
				as = bitset.New(n)
				c.byAttr[key] = as
			}
			attrSets[a] = append(attrSets[a], as)
		}
	}
	var rs *bitset.Set
	for i := range b.nodes {
		if rack := b.nodes[i].Rack; i == 0 || rack != b.nodes[i-1].Rack {
			var ok bool
			if rs, ok = c.byRack[rack]; !ok {
				rs = bitset.New(n)
				c.byRack[rack] = rs
				c.racks = append(c.racks, rack)
			}
		}
		rs.Add(i)
		if a := b.attrOf[i]; a >= 0 {
			for _, as := range attrSets[a] {
				as.Add(i)
			}
		}
	}
	sort.Strings(c.racks)
	return c
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.nodes) }

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) Node { return c.nodes[id] }

// Racks returns the rack names in sorted order.
func (c *Cluster) Racks() []string { return c.racks }

// Rack returns the set of nodes in the named rack (nil if unknown).
func (c *Cluster) Rack(name string) *bitset.Set {
	if s, ok := c.byRack[name]; ok {
		return s.Clone()
	}
	return nil
}

// RackSize returns the number of nodes in the named rack (0 if unknown).
func (c *Cluster) RackSize(name string) int {
	if s, ok := c.byRack[name]; ok {
		return s.Count()
	}
	return 0
}

// WithAttr returns the set of nodes carrying attribute k=v; the empty set if
// none do.
func (c *Cluster) WithAttr(k, v string) *bitset.Set {
	if s, ok := c.byAttr[k+"="+v]; ok {
		return s.Clone()
	}
	return bitset.New(c.N())
}

// NumWithAttr returns the number of nodes carrying attribute k=v.
func (c *Cluster) NumWithAttr(k, v string) int {
	if s, ok := c.byAttr[k+"="+v]; ok {
		return s.Count()
	}
	return 0
}

// All returns the set of all nodes.
func (c *Cluster) All() *bitset.Set { return c.all.Clone() }

// Partitioning is the result of refining the cluster's nodes against the
// equivalence sets referenced in one scheduling cycle: Groups is a partition
// of the universe such that every input equivalence set is an exact union of
// groups. Cover[i] lists the group indices whose union is input set i.
//
// A Partitioning owns the memory it is made of — the group sets, the covers
// and its working lists — and Refine builds the next partition in it. The zero
// value is an empty partition, ready for Refine.
type Partitioning struct {
	Groups []*bitset.Set
	Cover  [][]int

	sets     []*bitset.Set // every set this Partitioning has made; sets[:used] are taken
	used     int
	spare    []*bitset.Set // the backing Groups had before the last split
	first    []int32       // first[i]: index of the first entry equal to eqsets[i]
	distinct []int32
	flat     []int // one backing array for every distinct set's cover
}

// Partition refines universe against the given equivalence sets. This is the
// "dynamic partitioning of cluster resources at the beginning of each cycle
// to minimize the number of partition variables" optimization: the MILP only
// needs one integer variable per (leaf, group, start) rather than per node.
//
// A cycle lists one set per STRL leaf but references only a handful of
// distinct placement sets, so a set the partition has already been refined
// against (the same pointer, or the same members) is skipped and shares the
// Cover slice of its first occurrence; callers must treat Cover as read-only.
// Refining twice against one set changes nothing, so the groups and their
// order are those of refining against every entry in turn.
//
// Partition is Refine on a new Partitioning, for a caller that partitions
// once: the tests' reference form and BenchmarkPartition's. The scheduler
// refines into a Partitioning its compiler.Scratch keeps.
func Partition(universe *bitset.Set, eqsets []*bitset.Set) *Partitioning {
	p := new(Partitioning)
	p.Refine(universe, eqsets)
	return p
}

// Refine makes p the Partition of universe against eqsets, in the memory p
// already has: the groups and covers p held before are overwritten, and a
// caller that refines the same cluster cycle after cycle allocates nothing once
// p has seen its largest partition. Neither input is retained.
func (p *Partitioning) Refine(universe *bitset.Set, eqsets []*bitset.Set) {
	p.used = 0
	all := p.newSet(universe.Cap())
	all.CopyFrom(universe)
	groups, next := append(p.Groups[:0], all), p.spare[:0]
	first, distinct := slab.Grow(p.first[:0], len(eqsets)), p.distinct[:0]
	for i, es := range eqsets {
		if d := findSet(eqsets, distinct, es); d >= 0 {
			first = append(first, d)
			continue
		}
		first, distinct = append(first, int32(i)), append(distinct, int32(i))
		// A group splits only when it straddles the set; a group inside or
		// outside it stays as it is, with no copy made to find that out.
		split := false
		for gi, g := range groups {
			if !g.Intersects(es) || g.SubsetOf(es) {
				if split {
					next = append(next, g)
				}
				continue
			}
			if !split {
				split, next = true, append(next[:0], groups[:gi]...)
			}
			// The group's own set becomes its part inside es.
			out := p.newSet(universe.Cap())
			out.CopyFrom(g)
			out.DifferenceWith(es)
			g.IntersectWith(es)
			next = append(next, g, out)
		}
		if split {
			groups, next = next, groups
		}
	}
	p.Groups, p.spare, p.first, p.distinct = groups, next, first, distinct
	p.Cover = slab.Sized(p.Cover, len(eqsets)) // every entry is written below
	flat := p.flat[:0]
	for i, es := range eqsets {
		if int(first[i]) != i {
			p.Cover[i] = p.Cover[first[i]]
			continue
		}
		lo := len(flat)
		for gi, g := range groups {
			if g.SubsetOf(es) && !g.Empty() {
				flat = append(flat, gi)
			}
		}
		p.Cover[i] = nil
		if len(flat) > lo {
			p.Cover[i] = flat[lo:len(flat):len(flat)]
		}
	}
	p.flat = flat
}

// newSet hands out one of p's sets over n nodes, contents unspecified.
func (p *Partitioning) newSet(n int) *bitset.Set {
	if p.used == len(p.sets) {
		p.sets = append(p.sets, bitset.New(n))
	} else if p.sets[p.used].Cap() != n {
		p.sets[p.used] = bitset.New(n)
	}
	p.used++
	return p.sets[p.used-1]
}

// findSet returns the index in eqsets of the entry among seen that is es, by
// pointer or else by content, or -1.
func findSet(eqsets []*bitset.Set, seen []int32, es *bitset.Set) int32 {
	for _, d := range seen {
		if eqsets[d] == es {
			return d
		}
	}
	for _, d := range seen {
		if eqsets[d].Equal(es) {
			return d
		}
	}
	return -1
}
