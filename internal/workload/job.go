// Package workload models jobs and generates the synthetic workload mixes of
// the TetriSched paper's evaluation (Table 1): production-trace-derived
// (GR SLO, GR MIX) and synthetic (GS MIX, GS HET) compositions of SLO and
// best-effort jobs with Unconstrained, GPU, and MPI placement preferences.
//
// The SWIM production traces (Facebook fb2009_2, Yahoo yahoo_1) are not
// redistributable; we substitute parameterized heavy-tailed distributions
// matching the published characterizations (many small jobs, a long tail of
// large ones) — see DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"
	"math"

	"tetrisched/internal/cluster"
)

// Class distinguishes deadline-bound SLO jobs from latency-sensitive
// best-effort jobs.
type Class int

// Job classes.
const (
	SLO Class = iota
	BestEffort
)

func (c Class) String() string {
	if c == SLO {
		return "SLO"
	}
	return "BE"
}

// Type is the placement-preference type of a job (§6.2.1).
type Type int

// Placement preference types.
const (
	// Unconstrained jobs value any k nodes equally.
	Unconstrained Type = iota
	// GPU jobs prefer k GPU-labeled nodes and slow down elsewhere.
	GPU
	// MPI jobs prefer all k tasks rack-local and slow down when spread.
	MPI
	// Elastic jobs are malleable: they accept any width in [MinK, K] and
	// run proportionally longer on fewer nodes (the "general space-time
	// elasticity" STRL expresses with MAX over shapes, §4.1).
	Elastic
	// DataLocal jobs prefer the nodes holding their input replicas — the
	// paper's *dynamic* heterogeneity (§2.2): the machines a job finds
	// attractive depend on where its data currently lives, not on static
	// hardware attributes.
	DataLocal
)

func (t Type) String() string {
	switch t {
	case Unconstrained:
		return "Unconstrained"
	case GPU:
		return "GPU"
	case MPI:
		return "MPI"
	case Elastic:
		return "Elastic"
	case DataLocal:
		return "DataLocal"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Job is one schedulable unit: a gang of K tasks that must run
// simultaneously on K distinct nodes.
type Job struct {
	ID     int
	Class  Class
	Type   Type
	Submit int64 // arrival time, seconds
	K      int   // gang width (nodes)

	// BaseRuntime is the true runtime on a preferred placement; on a
	// non-preferred placement the job runs Slowdown× longer.
	BaseRuntime int64
	Slowdown    float64

	// Deadline is the absolute SLO completion deadline (SLO jobs only).
	Deadline int64

	// EstErr is the runtime estimate error: the scheduler and reservation
	// system believe the runtime is True×(1+EstErr). Positive values
	// over-estimate, negative under-estimate (§6.3).
	EstErr float64

	// MinK is the minimum acceptable gang width for Elastic jobs (0 for
	// rigid jobs, which always receive exactly K nodes).
	MinK int

	// DataNodes lists the nodes holding the job's input replicas (DataLocal
	// jobs only); running anywhere else incurs the Slowdown factor.
	DataNodes []int

	// Priority scales the job's STRL value (§3.2: "value functions … can be
	// used … to apply job priorities"). Zero means the default of 1.
	Priority float64

	// Reserved marks an SLO job whose reservation was accepted by the
	// admission-control plan; set by the simulation driver at submit time.
	Reserved bool

	// Tenant names the submitting tenant when the job entered through the
	// daemon's multi-tenant front door (internal/httpapi); empty for
	// simulator-generated jobs. Carried for accounting only — placement
	// policy never reads it.
	Tenant string

	// AdmitSeq is the global admission sequence number stamped by the
	// daemon's weighted-fair dequeue when the job leaves the ingress queue
	// for the scheduler (internal/httpapi); 0 for jobs that never passed
	// through an admission queue. Within a (priority, Submit) tie the
	// scheduler's pending order follows AdmitSeq, so a tenant's fair-share
	// position survives into the pending queue instead of collapsing back
	// to job-ID order.
	AdmitSeq int64
}

// WidthRange returns the acceptable allocation widths [min, max].
func (j *Job) WidthRange() (int, int) {
	if j.Type == Elastic && j.MinK > 0 && j.MinK < j.K {
		return j.MinK, j.K
	}
	return j.K, j.K
}

// RuntimeAtWidth returns the true runtime when running on m nodes: rigid
// jobs ignore m; elastic jobs scale work-conservingly (K/m × base).
func (j *Job) RuntimeAtWidth(m int, preferred bool) int64 {
	base := j.TrueRuntime(preferred)
	if j.Type != Elastic || m <= 0 || m >= j.K {
		return base
	}
	return int64(math.Ceil(float64(base) * float64(j.K) / float64(m)))
}

// TrueRuntime returns the actual runtime for a preferred or non-preferred
// placement.
func (j *Job) TrueRuntime(preferred bool) int64 {
	if preferred {
		return j.BaseRuntime
	}
	return int64(math.Ceil(float64(j.BaseRuntime) * j.Slowdown))
}

// EstRuntime returns the runtime the scheduler believes, with the estimate
// error applied. Never less than 1 second.
func (j *Job) EstRuntime(preferred bool) int64 {
	est := int64(math.Ceil(float64(j.TrueRuntime(preferred)) * (1 + j.EstErr)))
	if est < 1 {
		est = 1
	}
	return est
}

// PlacementPreferred reports whether the concrete node assignment is a
// preferred placement for the job's type: all-GPU for GPU jobs, rack-local
// for MPI, always for Unconstrained.
func PlacementPreferred(c *cluster.Cluster, j *Job, nodes []int) bool {
	switch j.Type {
	case Unconstrained:
		return true
	case GPU:
		key, val := cluster.GPUAttr()
		for _, n := range nodes {
			if c.Node(cluster.NodeID(n)).Attrs[key] != val {
				return false
			}
		}
		return true
	case Elastic:
		return true
	case DataLocal:
		replicas := make(map[int]bool, len(j.DataNodes))
		for _, n := range j.DataNodes {
			replicas[n] = true
		}
		for _, n := range nodes {
			if !replicas[n] {
				return false
			}
		}
		return true
	case MPI:
		if len(nodes) == 0 {
			return true
		}
		rack := c.Node(cluster.NodeID(nodes[0])).Rack
		for _, n := range nodes[1:] {
			if c.Node(cluster.NodeID(n)).Rack != rack {
				return false
			}
		}
		return true
	}
	return true
}

// ActualRuntime returns the true runtime of the job on the given concrete
// placement, accounting for elastic width scaling.
func ActualRuntime(c *cluster.Cluster, j *Job, nodes []int) int64 {
	return j.RuntimeAtWidth(len(nodes), PlacementPreferred(c, j, nodes))
}
