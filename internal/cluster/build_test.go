package cluster

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"tetrisched/internal/bitset"
)

// refBuilder is the builder as it was before racks shared one attribute map:
// a formatted name and a copy of the attributes per node, and a Build that
// ranges over every node's map. Kept as the reference Builder must match.
type refBuilder struct{ nodes []Node }

func (b *refBuilder) AddRack(rack string, n int, attrs map[string]string) {
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("%s/n%d", rack, i), rack, attrs)
	}
}

func (b *refBuilder) AddNode(name, rack string, attrs map[string]string) {
	var c map[string]string
	if len(attrs) > 0 {
		c = maps.Clone(attrs)
	}
	b.nodes = append(b.nodes, Node{ID: NodeID(len(b.nodes)), Name: name, Rack: rack, Attrs: c})
}

func (b *refBuilder) Build() *Cluster {
	n := len(b.nodes)
	c := &Cluster{nodes: b.nodes, byRack: map[string]*bitset.Set{}, byAttr: map[string]*bitset.Set{}, all: bitset.New(n)}
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
			as, ok := c.byAttr[k+"="+v]
			if !ok {
				as = bitset.New(n)
				c.byAttr[k+"="+v] = as
			}
			as.Add(int(node.ID))
		}
	}
	slices.Sort(c.racks)
	return c
}

// addStep is one builder call: AddRack(rack, n, attrs) if n > 0, else
// AddNode(name, rack, attrs).
type addStep struct {
	rack  string
	n     int
	name  string
	attrs map[string]string
}

func racks(count, perRack, gpuRacks int) []addStep {
	var steps []addStep
	for r := 0; r < count; r++ {
		s := addStep{rack: fmt.Sprintf("r%d", r), n: perRack}
		if r < gpuRacks {
			s.attrs = map[string]string{"gpu": "true"}
		}
		steps = append(steps, s)
	}
	return steps
}

// build applies steps to a Builder and to the reference.
func build(steps []addStep) (got, want *Cluster) {
	b, ref := NewBuilder(), &refBuilder{}
	for _, s := range steps {
		if s.n > 0 {
			b.AddRack(s.rack, s.n, s.attrs)
			ref.AddRack(s.rack, s.n, s.attrs)
		} else {
			b.AddNode(s.name, s.rack, s.attrs)
			ref.AddNode(s.name, s.rack, s.attrs)
		}
	}
	return b.Build(), ref.Build()
}

// sameCluster reports the first way got differs from want: nodes (attribute
// maps by content), Racks, Rack of every rack, WithAttr of every attribute,
// and All; unknown racks and attributes must answer as the reference does.
func sameCluster(got, want *Cluster) error {
	if got.N() != want.N() {
		return fmt.Errorf("N = %d, want %d", got.N(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		g, w := got.Node(NodeID(i)), want.Node(NodeID(i))
		if g.ID != w.ID || g.Name != w.Name || g.Rack != w.Rack || !maps.Equal(g.Attrs, w.Attrs) || (g.Attrs == nil) != (w.Attrs == nil) {
			return fmt.Errorf("node %d = %+v, want %+v", i, g, w)
		}
	}
	if !slices.Equal(got.Racks(), want.Racks()) {
		return fmt.Errorf("Racks = %v, want %v", got.Racks(), want.Racks())
	}
	for _, r := range append(want.Racks(), "no-such-rack") {
		g, w := got.Rack(r), want.Rack(r)
		if (g == nil) != (w == nil) || (w != nil && !g.Equal(w)) {
			return fmt.Errorf("Rack(%q) = %v, want %v", r, g, w)
		}
		if w != nil && got.RackSize(r) != w.Count() {
			return fmt.Errorf("RackSize(%q) = %d, want %d", r, got.RackSize(r), w.Count())
		}
	}
	if len(got.byAttr) != len(want.byAttr) {
		return fmt.Errorf("%d attribute sets, want %d", len(got.byAttr), len(want.byAttr))
	}
	keys := []string{"gpu=false", "no-such=attr"}
	for key := range want.byAttr {
		keys = append(keys, key)
	}
	for _, key := range keys {
		k, v, _ := strings.Cut(key, "=")
		g, w := got.WithAttr(k, v), want.WithAttr(k, v)
		if !g.Equal(w) || got.NumWithAttr(k, v) != w.Count() {
			return fmt.Errorf("WithAttr(%q, %q) = %v (%d), want %v", k, v, g, got.NumWithAttr(k, v), w)
		}
	}
	if !got.All().Equal(want.All()) {
		return fmt.Errorf("All = %v, want %v", got.All(), want.All())
	}
	return nil
}

// TestBuildMatchesReference: the rack-at-a-time Builder makes the cluster the
// per-node reference makes, on the paper's clusters, the front-door cluster,
// a partial last rack, a rack with four-digit node numbers, and AddNode calls
// mixed in with their own attributes.
func TestBuildMatchesReference(t *testing.T) {
	mixed := append(racks(3, 5, 1),
		addStep{name: "special", rack: "r1", attrs: map[string]string{"ssd": "true"}},
		addStep{name: "edge/0", rack: "edge", attrs: map[string]string{"gpu": "true", "zone": "b"}},
		addStep{rack: "wide", n: 12, attrs: map[string]string{"gpu": "true", "zone": "a", "ssd": "false"}},
		addStep{name: "edge/1", rack: "edge"},
		addStep{name: "r0-extra", rack: "r0", attrs: map[string]string{"zone": "a"}},
		addStep{rack: "empty", n: 0, name: "lone"},
	)
	cases := map[string][]addStep{
		"RC80":             racks(8, 10, 0),
		"RC80 het":         racks(8, 10, 2),
		"RC256":            racks(8, 32, 0),
		"RC256 het":        racks(8, 32, 2),
		"32x32 8 gpu":      racks(32, 32, 8),
		"partial last":     append(racks(4, 11, 1), addStep{rack: "r4", n: 3}),
		"one rack of 1100": racks(1, 1100, 1),
		"AddNode mixed in": mixed,
	}
	for name, steps := range cases {
		got, want := build(steps)
		if err := sameCluster(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, het := range []bool{false, true} {
		gpu := 0
		if het {
			gpu = 2
		}
		_, want := build(racks(8, 10, gpu))
		if err := sameCluster(RC80(het), want); err != nil {
			t.Errorf("RC80(%v): %v", het, err)
		}
		_, want = build(racks(8, 32, gpu))
		if err := sameCluster(RC256(het), want); err != nil {
			t.Errorf("RC256(%v): %v", het, err)
		}
	}
}

// TestAddRackCopiesAttrs: a rack's nodes share one map, a copy of the
// caller's, and AddNode still copies per call.
func TestAddRackCopiesAttrs(t *testing.T) {
	attrs := map[string]string{"gpu": "true"}
	b := NewBuilder().AddRack("r0", 3, attrs).AddNode("x", "r1", attrs)
	attrs["gpu"] = "false"
	c := b.Build()
	for i := 0; i < c.N(); i++ {
		if got := c.Node(NodeID(i)).Attrs["gpu"]; got != "true" {
			t.Errorf("node %d gpu=%q after the caller's map changed", i, got)
		}
	}
	if got := c.NumWithAttr("gpu", "true"); got != 4 {
		t.Errorf("gpu nodes = %d, want 4", got)
	}
}

// TestRackedMatchesPerNodeLoop: Racked is the per-node loop tetrischedd and
// loadgen used to build their clusters with, AddRack for AddNode.
func TestRackedMatchesPerNodeLoop(t *testing.T) {
	for _, tc := range []struct{ nodes, racks, gpuRacks int }{
		{80, 8, 2}, {32, 4, 0}, {1024, 32, 8}, {10, 4, 1}, {9, 4, 0}, {7, 3, 5}, {1, 8, 2}, {0, 8, 2},
	} {
		ref := &refBuilder{}
		perRack := (tc.nodes + tc.racks - 1) / tc.racks
		id := 0
		for r := 0; r < tc.racks && id < tc.nodes; r++ {
			var attrs map[string]string
			if r < tc.gpuRacks {
				k, v := GPUAttr()
				attrs = map[string]string{k: v}
			}
			for i := 0; i < perRack && id < tc.nodes; i++ {
				ref.AddNode(fmt.Sprintf("r%d/n%d", r, i), fmt.Sprintf("r%d", r), attrs)
				id++
			}
		}
		if err := sameCluster(Racked(tc.nodes, tc.racks, tc.gpuRacks), ref.Build()); err != nil {
			t.Errorf("Racked(%d, %d, %d): %v", tc.nodes, tc.racks, tc.gpuRacks, err)
		}
	}
}

var builtSink *Cluster

// BenchmarkBuild times the paper's RC256 and the front-door cluster, 32 racks
// of 32 with 8 GPU racks.
func BenchmarkBuild(b *testing.B) {
	b.Run("RC256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			builtSink = RC256(true)
		}
	})
	b.Run("1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			builtSink = Racked(1024, 32, 8)
		}
	})
}
