package workload

import (
	"fmt"
	"math"

	"tetrisched/internal/cluster"
	"tetrisched/internal/randx"
)

// ClassParams describes the size/duration distribution of one job class.
type ClassParams struct {
	// Gang width distribution: discrete values with weights.
	KValues  []float64
	KWeights []float64
	// Base runtime: lognormal with this mean and coefficient of variation,
	// clipped to [MinDur, MaxDur] seconds.
	MeanDur float64
	CVDur   float64
	MinDur  int64
	MaxDur  int64
}

func (p ClassParams) meanK() float64 {
	return randx.NewDiscrete(p.KValues, p.KWeights).Mean()
}

// Mix configures one workload generation run, corresponding to a row of
// Table 1.
type Mix struct {
	Name    string
	SLOFrac float64 // fraction of jobs that are SLO class

	// Placement-type fractions (must sum to 1).
	UnconstrainedFrac float64
	GPUFrac           float64
	MPIFrac           float64
	// ElasticFrac jobs are malleable (extension): width in [K/4, K].
	ElasticFrac float64

	SLOClass ClassParams
	BEClass  ClassParams

	// TargetUtil is the offered load as a fraction of cluster capacity; the
	// paper adjusts load to utilize near 100% of capacity (§6.4).
	TargetUtil float64
	// NumJobs is the total number of jobs to generate.
	NumJobs int
	// Slowdown applied to GPU/MPI jobs on non-preferred placements.
	Slowdown float64
	// DeadlineSlackMin/Max bound the uniform slack factor: deadline =
	// submit + slack×preferred-runtime.
	DeadlineSlackMin float64
	DeadlineSlackMax float64
	// EstErr is the runtime estimate error applied to every job (swept by
	// the experiments).
	EstErr float64
}

// Validate checks mix parameters.
func (m Mix) Validate() error {
	if m.NumJobs <= 0 {
		return fmt.Errorf("workload: NumJobs must be positive")
	}
	if m.SLOFrac < 0 || m.SLOFrac > 1 {
		return fmt.Errorf("workload: SLOFrac out of range")
	}
	if s := m.UnconstrainedFrac + m.GPUFrac + m.MPIFrac + m.ElasticFrac; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("workload: type fractions sum to %v, want 1", s)
	}
	if m.TargetUtil <= 0 {
		return fmt.Errorf("workload: TargetUtil must be positive")
	}
	if m.DeadlineSlackMin < 1 || m.DeadlineSlackMax < m.DeadlineSlackMin {
		return fmt.Errorf("workload: bad deadline slack range")
	}
	return nil
}

// Generate produces the job stream for the mix on the given cluster, in
// submit order: arrival times accumulate, so no sort is needed. The same seed
// always yields the same stream.
func Generate(m Mix, c *cluster.Cluster, seed int64) ([]*Job, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	src := randx.New(seed)
	kSLO := randx.NewDiscrete(m.SLOClass.KValues, m.SLOClass.KWeights)
	kBE := randx.NewDiscrete(m.BEClass.KValues, m.BEClass.KWeights)

	// Load calibration: mean work per job (node-seconds) over the class mix
	// determines the Poisson arrival rate that fills TargetUtil of capacity.
	meanWork := m.SLOFrac*m.SLOClass.meanK()*m.SLOClass.MeanDur +
		(1-m.SLOFrac)*m.BEClass.meanK()*m.BEClass.MeanDur
	capacity := float64(c.N())
	interarrival := meanWork / (capacity * m.TargetUtil)

	maxK := c.N()
	if m.MPIFrac > 0 {
		// MPI jobs must fit in a rack to have a preferred option.
		smallest := math.MaxInt32
		for _, r := range c.Racks() {
			smallest = min(smallest, c.RackSize(r))
		}
		maxK = smallest
	}
	gpuCount := c.NumWithAttr(cluster.GPUAttr())

	jobs := make([]*Job, 0, m.NumJobs)
	t := 0.0
	for i := 0; i < m.NumJobs; i++ {
		t += src.Exp(interarrival)
		j := &Job{ID: i, Submit: int64(t), Slowdown: m.Slowdown, EstErr: m.EstErr}
		if src.Float64() < m.SLOFrac {
			j.Class = SLO
		} else {
			j.Class = BestEffort
		}
		params := m.BEClass
		kdist := kBE
		if j.Class == SLO {
			params = m.SLOClass
			kdist = kSLO
		}
		j.K = int(kdist.Sample(src))
		if j.K > maxK {
			j.K = maxK
		}
		if j.K < 1 {
			j.K = 1
		}
		dur := src.LognormalMeanCV(params.MeanDur, params.CVDur)
		j.BaseRuntime = clampInt64(int64(dur), params.MinDur, params.MaxDur)

		r := src.Float64()
		switch {
		case r < m.UnconstrainedFrac:
			j.Type = Unconstrained
		case r < m.UnconstrainedFrac+m.GPUFrac:
			j.Type = GPU
			if j.K > gpuCount && gpuCount > 0 {
				j.K = gpuCount
			}
		case r < m.UnconstrainedFrac+m.GPUFrac+m.MPIFrac:
			j.Type = MPI
		default:
			j.Type = Elastic
			j.MinK = j.K / 4
			if j.MinK < 1 {
				j.MinK = 1
			}
		}
		if j.Type != Unconstrained && j.Slowdown <= 1 {
			j.Slowdown = 1.5
		}
		if j.Class == SLO {
			slack := src.Uniform(m.DeadlineSlackMin, m.DeadlineSlackMax)
			j.Deadline = j.Submit + int64(slack*float64(j.BaseRuntime))
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// --- Predefined mixes (Table 1) -------------------------------------------

// swimFB2009 approximates the SWIM fb2009_2 production class used for SLO
// jobs: heavy-tailed gang widths, multi-minute runtimes.
func swimFB2009() ClassParams {
	return ClassParams{
		KValues:  []float64{2, 4, 8, 12, 16, 24},
		KWeights: []float64{25, 30, 22, 12, 8, 3},
		MeanDur:  240, CVDur: 1.2, MinDur: 30, MaxDur: 1800,
	}
}

// swimYahoo approximates the SWIM yahoo_1 class used for best-effort jobs:
// smaller, shorter jobs.
func swimYahoo() ClassParams {
	return ClassParams{
		KValues:  []float64{1, 2, 4, 6, 8},
		KWeights: []float64{30, 30, 25, 10, 5},
		MeanDur:  120, CVDur: 1.0, MinDur: 20, MaxDur: 900,
	}
}

// synthClass is the narrower synthetic class for the GS workloads, sized for
// the RC80 cluster.
func synthClass(meanDur float64) ClassParams {
	return ClassParams{
		KValues:  []float64{2, 4, 6, 8},
		KWeights: []float64{30, 35, 25, 10},
		MeanDur:  meanDur, CVDur: 0.8, MinDur: 30, MaxDur: 900,
	}
}

// GRSLO is the production-derived SLO-only mix (Table 1 row "GR SLO").
func GRSLO(numJobs int) Mix {
	return Mix{
		Name: "GR_SLO", SLOFrac: 1.0,
		UnconstrainedFrac: 1.0,
		SLOClass:          swimFB2009(), BEClass: swimYahoo(),
		TargetUtil: 1.0, NumJobs: numJobs, Slowdown: 1.5,
		DeadlineSlackMin: 2, DeadlineSlackMax: 6,
	}
}

// GRMIX is the production-derived 52% SLO / 48% BE mix (Table 1 row "GR MIX").
func GRMIX(numJobs int) Mix {
	m := GRSLO(numJobs)
	m.Name = "GR_MIX"
	m.SLOFrac = 0.52
	return m
}

// GSMIX is the synthetic homogeneous 70% SLO / 30% BE mix (Table 1 row
// "GS MIX"), sized for RC80.
func GSMIX(numJobs int) Mix {
	return Mix{
		Name: "GS_MIX", SLOFrac: 0.70,
		UnconstrainedFrac: 1.0,
		SLOClass:          synthClass(180), BEClass: synthClass(90),
		TargetUtil: 1.0, NumJobs: numJobs, Slowdown: 1.5,
		DeadlineSlackMin: 2, DeadlineSlackMax: 6,
	}
}

// GSHET is the synthetic heterogeneous 75% SLO / 25% BE mix with 50% GPU and
// 50% MPI placement preferences (Table 1 row "GS HET"), sized for RC80.
func GSHET(numJobs int) Mix {
	return Mix{
		Name: "GS_HET", SLOFrac: 0.75,
		GPUFrac: 0.5, MPIFrac: 0.5,
		SLOClass: synthClass(180), BEClass: synthClass(90),
		TargetUtil: 1.0, NumJobs: numJobs, Slowdown: 1.5,
		DeadlineSlackMin: 2, DeadlineSlackMax: 6,
	}
}
