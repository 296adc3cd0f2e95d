package telemetry

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

type stats struct {
	name  string
	n     int
	rate  float64
	spent time.Duration
	lat   *Histogram
}

var rows = []Metric[stats]{
	Row("a", "n", "x_n_total", "counter", "Things counted.", func(s *stats) any { return s.n }),
	Row("a", "name", "", "gauge", "A name, for status only.", func(s *stats) any { return s.name }),
	Row("b", "rate", "x_rate", "gauge", "A rate.", func(s *stats) any { return s.rate }),
	Row("b", "spent_millis", "x_spent_seconds_total", "counter", "Time spent.", func(s *stats) any { return s.spent }),
	Row("", "", "x_lat_seconds", "histogram", "A latency.", func(s *stats) any { return s.lat }),
}

func sample() *stats {
	s := &stats{name: "s", n: 1234567, rate: 0.25, spent: 1500 * time.Microsecond, lat: NewHistogram([]float64{.001, .01})}
	for _, v := range []float64{.0005, .005, .005, 1} {
		s.lat.Observe(v)
	}
	return s
}

// TestRenderings: one table, three faces. A duration reads milliseconds under
// its key and seconds under its Prometheus name, an integer never prints with
// an exponent, a row without a name stays off /metrics and a histogram off the
// other two.
func TestRenderings(t *testing.T) {
	var b strings.Builder
	Prom(&b, rows, nil, sample())
	want := `# HELP x_n_total Things counted.
# TYPE x_n_total counter
x_n_total 1234567
# HELP x_rate A rate.
# TYPE x_rate gauge
x_rate 0.25
# HELP x_spent_seconds_total Time spent.
# TYPE x_spent_seconds_total counter
x_spent_seconds_total 0.0015
# HELP x_lat_seconds A latency.
# TYPE x_lat_seconds histogram
x_lat_seconds_bucket{le="0.001"} 1
x_lat_seconds_bucket{le="0.01"} 3
x_lat_seconds_bucket{le="+Inf"} 4
x_lat_seconds_sum 1.0105
x_lat_seconds_count 4
`
	if b.String() != want {
		t.Errorf("Prom =\n%s\nwant\n%s", b.String(), want)
	}

	b.Reset()
	Prom(&b, rows[:1], func(s *stats) string { return `{tenant="` + s.name + `"}` }, sample(), sample())
	if want := "x_n_total{tenant=\"s\"} 1234567\n"; strings.Count(b.String(), want) != 2 || strings.Count(b.String(), "# TYPE") != 1 {
		t.Errorf("labelled Prom = %q, want one header and two samples", b.String())
	}

	if got, want := Object(rows, sample()), (map[string]any{"n": 1234567, "rate": 0.25, "name": "s", "spent_millis": 1.5}); !reflect.DeepEqual(got, want) {
		t.Errorf("Object = %v, want %v", got, want)
	}
	if got, want := Lines(rows, sample()), []string{"a: n=1234567 name=s", "b: rate=0.250 spent_millis=1.500"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Lines = %q, want %q", got, want)
	}
}

// TestHistogramClone: a clone is what a reader may keep while the owner goes
// on observing.
func TestHistogramClone(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	c := h.Clone()
	h.Observe(2)
	var b strings.Builder
	c.prom(&b, "x")
	if want := "x_bucket{le=\"1\"} 1\nx_bucket{le=\"+Inf\"} 1\nx_sum 0.5\nx_count 1\n"; b.String() != want {
		t.Errorf("clone after a later Observe =\n%s\nwant\n%s", b.String(), want)
	}
}
