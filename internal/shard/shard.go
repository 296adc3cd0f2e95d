// Package shard is the sharded shared-state control plane: it partitions the
// cluster into shards and routes each pending job's STRL request to the shard
// best able to satisfy it.
//
// The design follows the arktos-style global scheduler: every shard plans
// concurrently over a snapshot of the full cluster state, each believing it
// owns the capacity it sees (the compiler slices shared supply rows into
// optimistic per-shard copies; compiler.ForcedComponents). Conflicts are not
// prevented up front — internal/core commits the placements one by one
// against the shared free set, a placement whose nodes an earlier commit took
// fails, and its job requeues intact. Jobs whose space-time
// demand no single shard can satisfy are serialized through a gang
// arbitrator component so gangs place atomically or defer whole
// (docs/SHARDING.md).
package shard

import (
	"sort"
	"strings"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
)

// ByProfile shards along resource-profile and locality lines: racks are
// grouped by their attribute profile (gpu=true vs plain, etc.) and each
// profile's racks are dealt round-robin across shards, so every shard holds a
// proportional slice of every hardware class and whole racks stay together
// (rack-locality STRL options remain satisfiable within one shard). Clusters
// with fewer racks than shards fall back to contiguous node-ID ranges. It is
// deterministic for a given cluster: shard membership feeds the component
// fingerprints, and an unstable partition would end every replay.
type ByProfile struct{}

// Name identifies the strategy in telemetry and /v1/status.
func (ByProfile) Name() string { return "by-profile" }

// Partition returns n disjoint node sets covering the cluster. Sets may be
// empty when the cluster is smaller than n.
func (ByProfile) Partition(c *cluster.Cluster, n int) []*bitset.Set {
	if n < 1 {
		n = 1
	}
	sets := make([]*bitset.Set, n)
	for i := range sets {
		sets[i] = bitset.New(c.N())
	}
	if n == 1 {
		sets[0].Fill()
		return sets
	}
	racks := c.Racks()
	if len(racks) < n {
		// Too few racks to deal whole: split the node-ID space into n
		// near-equal contiguous ranges instead.
		per := (c.N() + n - 1) / n
		for id := 0; id < c.N(); id++ {
			sets[id/per].Add(id)
		}
		return sets
	}
	// Group racks by profile (attributes of the rack's first node — racks
	// built via AddRack are attribute-uniform), keeping the sorted rack order
	// within each profile.
	byProfile := make(map[string][]string)
	var profiles []string
	for _, rack := range racks {
		rs := c.Rack(rack)
		first := rs.Next(-1)
		key := profileKey(c.Node(cluster.NodeID(first)).Attrs)
		if _, ok := byProfile[key]; !ok {
			profiles = append(profiles, key)
		}
		byProfile[key] = append(byProfile[key], rack)
	}
	sort.Strings(profiles)
	for _, p := range profiles {
		for i, rack := range byProfile[p] {
			sets[i%n].UnionWith(c.Rack(rack))
		}
	}
	return sets
}

// profileKey serializes a node attribute map into a canonical string.
func profileKey(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	kv := make([]string, 0, len(attrs))
	for k, v := range attrs {
		kv = append(kv, k+"="+v)
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}
