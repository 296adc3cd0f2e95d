// Package cluster models the static structure of a heterogeneous cluster:
// nodes grouped into racks and labeled with attributes (e.g. gpu=true), plus
// the dynamic equivalence-set partitioner that TetriSched uses to minimize
// the number of MILP partition variables (paper §4.2 and TR Appendix A).
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"tetrisched/internal/bitset"
)

// NodeID indexes a node within its cluster; IDs are dense in [0, N).
type NodeID int

// Node is one machine.
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
	nodes []Node
}

// NewBuilder returns an empty cluster builder.
func NewBuilder() *Builder { return &Builder{} }

// AddRack appends a rack of n nodes, all carrying the given attributes.
// Node names are generated as rack/node-index.
func (b *Builder) AddRack(rack string, n int, attrs map[string]string) *Builder {
	for i := 0; i < n; i++ {
		node := Node{
			ID:    NodeID(len(b.nodes)),
			Name:  fmt.Sprintf("%s/n%d", rack, i),
			Rack:  rack,
			Attrs: copyAttrs(attrs),
		}
		b.nodes = append(b.nodes, node)
	}
	return b
}

// AddNode appends a single node.
func (b *Builder) AddNode(name, rack string, attrs map[string]string) *Builder {
	b.nodes = append(b.nodes, Node{
		ID:    NodeID(len(b.nodes)),
		Name:  name,
		Rack:  rack,
		Attrs: copyAttrs(attrs),
	})
	return b
}

func copyAttrs(attrs map[string]string) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	c := make(map[string]string, len(attrs))
	for k, v := range attrs {
		c[k] = v
	}
	return c
}

// Build freezes the builder into a Cluster.
func (b *Builder) Build() *Cluster {
	n := len(b.nodes)
	c := &Cluster{
		nodes:  b.nodes,
		byRack: make(map[string]*bitset.Set),
		byAttr: make(map[string]*bitset.Set),
		all:    bitset.New(n),
	}
	c.all.Fill()
	for _, node := range b.nodes {
		rs, ok := c.byRack[node.Rack]
		if !ok {
			rs = bitset.New(n)
			c.byRack[node.Rack] = rs
			c.racks = append(c.racks, node.Rack)
		}
		rs.Add(int(node.ID))
		for k, v := range node.Attrs {
			key := k + "=" + v
			as, ok := c.byAttr[key]
			if !ok {
				as = bitset.New(n)
				c.byAttr[key] = as
			}
			as.Add(int(node.ID))
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

// WithAttr returns the set of nodes carrying attribute k=v; the empty set if
// none do.
func (c *Cluster) WithAttr(k, v string) *bitset.Set {
	if s, ok := c.byAttr[k+"="+v]; ok {
		return s.Clone()
	}
	return bitset.New(c.N())
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
	first, distinct := slices.Grow(p.first[:0], len(eqsets)), p.distinct[:0]
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
	if cap(p.Cover) < len(eqsets) {
		p.Cover = make([][]int, len(eqsets))
	}
	p.Cover = p.Cover[:len(eqsets)]
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
