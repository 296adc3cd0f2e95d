package main

import "tetrisched/internal/metrics"

// minTailSamples is the "ten samples beyond" rule: a percentile is reported
// only when at least this many samples lie above it, so one slow outlier
// cannot set the number. The highest percentile the harness reports is the
// 95th, so a full-scale run is not correct with fewer than minSteadyCycles
// cycles in its steady view (execute checks).
const (
	minTailSamples  = 10
	minSteadyCycles = minTailSamples * 100 / (100 - 95)
)

// sample is a growing set of observations, reduced through metrics.CDF.
type sample struct{ v []float64 }

func (s *sample) add(x float64)         { s.v = append(s.v, x) }
func (s *sample) n() int                { return len(s.v) }
func (s *sample) pct(p float64) float64 { return metrics.NewCDF(s.v).Percentile(p) }
func (s *sample) median() float64       { return median(s.v) }
func (s *sample) max() float64          { return s.pct(100) }
func (s *sample) mean() float64         { return metrics.NewCDF(s.v).Mean() }

func median(v []float64) float64 { return metrics.NewCDF(v).Percentile(50) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
