// Package metrics computes the paper's evaluation metrics (§6.3) from
// simulation results: SLO attainment for all/accepted/without-reservation
// job categories, mean best-effort latency, and latency distributions for
// the scalability analysis.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// Summary aggregates one simulation run into the four headline metrics.
type Summary struct {
	Scheduler string

	// SLO attainment percentages (0–100).
	SLOAll      float64 // all SLO jobs
	SLOAccepted float64 // SLO jobs with accepted reservations
	SLONoRes    float64 // SLO jobs without reservations

	// MeanBELatency is the mean completion latency of best-effort jobs in
	// seconds (incomplete BE jobs are excluded; Incomplete counts them).
	MeanBELatency float64

	// Counts per category.
	NumSLO, NumAccepted, NumNoRes, NumBE int
	Incomplete                           int

	// Utilization is busy node-seconds over capacity×makespan.
	Utilization float64

	// Latency capture for Fig 12.
	CycleLatencies  []time.Duration
	SolverLatencies []time.Duration
}

// Summarize reduces a run result to its Summary.
func Summarize(name string, res *sim.Result, clusterSize int) Summary {
	s := Summary{Scheduler: name, Utilization: res.Utilization(clusterSize)}
	var sloMet, accMet, noResMet int
	var beLatSum float64
	var beDone int
	for i := range res.Stats {
		st := &res.Stats[i]
		switch st.Job.Class {
		case workload.SLO:
			s.NumSLO++
			met := st.MetSLO()
			if met {
				sloMet++
			}
			if st.Job.Reserved {
				s.NumAccepted++
				if met {
					accMet++
				}
			} else {
				s.NumNoRes++
				if met {
					noResMet++
				}
			}
		case workload.BestEffort:
			s.NumBE++
			if st.Completed {
				beDone++
				beLatSum += float64(st.Latency())
			}
		}
		if !st.Completed && !st.Dropped {
			s.Incomplete++
		}
	}
	s.SLOAll = pct(sloMet, s.NumSLO)
	s.SLOAccepted = pct(accMet, s.NumAccepted)
	s.SLONoRes = pct(noResMet, s.NumNoRes)
	if beDone > 0 {
		s.MeanBELatency = beLatSum / float64(beDone)
	}
	for _, c := range res.Cycles {
		s.CycleLatencies = append(s.CycleLatencies, c.Wall)
		s.SolverLatencies = append(s.SolverLatencies, c.Solver)
	}
	return s
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// String renders the headline numbers on one line.
func (s Summary) String() string {
	return fmt.Sprintf("%-16s SLO(all)=%5.1f%% SLO(res)=%5.1f%% SLO(no-res)=%5.1f%% BE-latency=%6.1fs util=%4.1f%%",
		s.Scheduler, s.SLOAll, s.SLOAccepted, s.SLONoRes, s.MeanBELatency, 100*s.Utilization)
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// NewDurationCDF builds a CDF over durations in milliseconds.
func NewDurationCDF(ds []time.Duration) *CDF {
	samples := make([]float64, len(ds))
	for i, d := range ds {
		samples[i] = float64(d) / float64(time.Millisecond)
	}
	return NewCDF(samples)
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Percentile returns the p-th percentile (p in [0,100]).
func (c *CDF) Percentile(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 100 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := p / 100 * float64(len(c.sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range c.sorted {
		total += v
	}
	return total / float64(len(c.sorted))
}
