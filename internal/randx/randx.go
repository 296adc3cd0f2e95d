// Package randx provides deterministic random distributions used by the
// workload generators. All draws flow through a seeded *rand.Rand so that a
// simulation seed fully determines its outcome.
package randx

import (
	"math"
	"math/rand"
	"sort"
)

// Source wraps a seeded PRNG with the distribution samplers the workload
// generators need.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponential draw with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Lognormal returns a draw from a lognormal distribution parameterized by the
// mu and sigma of the underlying normal.
func (s *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// LognormalMeanCV returns a lognormal draw parameterized by its own mean and
// coefficient of variation (stddev/mean), which is how workload
// characterizations are usually reported.
func (s *Source) LognormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		panic("randx: lognormal mean must be positive")
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.Lognormal(mu, math.Sqrt(sigma2))
}

// Discrete samples from a finite distribution given by (value, weight) pairs.
type Discrete struct {
	values []float64
	cum    []float64 // cumulative weights, last element = total
}

// NewDiscrete builds a sampler over the given values with the given
// nonnegative weights. Weights need not sum to 1.
func NewDiscrete(values, weights []float64) *Discrete {
	if len(values) != len(weights) || len(values) == 0 {
		panic("randx: values/weights mismatch")
	}
	d := &Discrete{values: append([]float64(nil), values...), cum: make([]float64, len(weights))}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("randx: negative weight")
		}
		total += w
		d.cum[i] = total
	}
	if total <= 0 {
		panic("randx: weights sum to zero")
	}
	return d
}

// Sample draws one value.
func (d *Discrete) Sample(s *Source) float64 {
	u := s.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.values) {
		i = len(d.values) - 1
	}
	return d.values[i]
}

// Mean returns the expectation of the discrete distribution.
func (d *Discrete) Mean() float64 {
	total := d.cum[len(d.cum)-1]
	mean := 0.0
	prev := 0.0
	for i, c := range d.cum {
		mean += d.values[i] * (c - prev) / total
		prev = c
	}
	return mean
}

// Shuffle permutes the ints in place.
func (s *Source) Shuffle(xs []int) {
	s.r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Split derives a new independent Source from this one; convenient for giving
// each workload stream its own generator while staying deterministic.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}
