package cluster

import "strconv"

// Standard experiment cluster configurations from the paper (§6.1).
// RC256 is the 256-node / 8-rack testbed; RC80 is the 80-node subset.
// In heterogeneous runs a fraction of racks is GPU-labeled; the paper's
// GS HET workload sends 50% GPU-preferring and 50% rack-affine MPI jobs at
// it, so we label 2 of 8 racks (25% of nodes) with gpu=true, matching the
// scarce-preferred-resource setup of Fig 1.
const (
	attrGPU = "gpu"
)

// GPUAttr is the attribute key used to label GPU nodes.
func GPUAttr() (string, string) { return attrGPU, "true" }

// RC256 builds the 256-node cluster: 8 racks of 32 nodes. If het is true,
// racks r0 and r1 are GPU-labeled.
func RC256(het bool) *Cluster { return rackCluster(8, 32, het) }

// RC80 builds the 80-node cluster: 8 racks of 10 nodes. If het is true,
// racks r0 and r1 are GPU-labeled.
func RC80(het bool) *Cluster { return rackCluster(8, 10, het) }

// rackCluster builds racks×perRack nodes; when het is set the first quarter
// of racks carry gpu=true.
func rackCluster(racks, perRack int, het bool) *Cluster {
	gpuRacks := 0
	if het {
		gpuRacks = racks / 4
	}
	return Racked(racks*perRack, racks, gpuRacks)
}

// Racked builds nodes machines split over racks r0, r1, … of
// ceil(nodes/racks) nodes each, the last one partial if the split is uneven;
// the first gpuRacks racks carry gpu=true; racks must be positive. This is
// the daemon's -nodes/-racks/-gpu-racks cluster.
func Racked(nodes, racks, gpuRacks int) *Cluster {
	b := NewBuilder()
	perRack := (nodes + racks - 1) / racks
	gpu := map[string]string{attrGPU: "true"}
	for r, id := 0, 0; r < racks && id < nodes; r++ {
		var attrs map[string]string
		if r < gpuRacks {
			attrs = gpu
		}
		n := min(perRack, nodes-id)
		b.AddRack("r"+strconv.Itoa(r), n, attrs)
		id += n
	}
	return b.Build()
}
