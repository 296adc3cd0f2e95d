// Package telemetry renders tables of metrics. A table is a slice of rows over
// the struct that holds the values (core.SolveStats, core.ShardStats, the
// daemon's snapshot, the admission status); a row names a value once — its
// /v1/status key, its Prometheus name, kind and help — and the renderers turn
// a table into the text of /metrics (Prom), an object of /v1/status (Object)
// and the "group: key=value …" lines of tetrisim -v and tetrischedd's exit
// (Lines). docs/OBSERVABILITY.md's tables are generated from what they render.
package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Metric is one row of a table over T.
type Metric[T any] struct {
	Group string // line of Lines the row prints on; "" = none
	Key   string // key in Object and Lines; "" = in neither
	Name  string // Prometheus name; "" = not on /metrics
	Kind  string // Prometheus type: counter (Name ends in _total), gauge or histogram
	Help  string
	// Get reads the value: an integer, a float64, a string (no Name), a
	// *Histogram (no Key), or a time.Duration, which Object and Lines render in
	// milliseconds (its Key ends in _millis) and Prom in seconds (_seconds_total).
	Get func(*T) any
}

// Row builds a Metric; a table's literal is a list of calls to it.
func Row[T any](group, key, name, kind, help string, get func(*T) any) Metric[T] {
	return Metric[T]{Group: group, Key: key, Name: name, Kind: kind, Help: help, Get: get}
}

// Prom writes every named row in Prometheus text exposition format (version
// 0.0.4): the row's HELP and TYPE, then one sample per element of samples,
// carrying the label set label returns for it ({tenant="a"}) when label is
// not nil.
func Prom[T any](b *strings.Builder, rows []Metric[T], label func(*T) string, samples ...*T) {
	for _, m := range rows {
		if m.Name == "" {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Kind)
		for _, s := range samples {
			labels := ""
			if label != nil {
				labels = label(s)
			}
			switch v := m.Get(s).(type) {
			case *Histogram:
				v.prom(b, m.Name)
			case time.Duration:
				fmt.Fprintf(b, "%s%s %g\n", m.Name, labels, v.Seconds())
			default: // integers print as %d, floats as %g
				fmt.Fprintf(b, "%s%s %v\n", m.Name, labels, v)
			}
		}
	}
}

// status is a row's value as /v1/status and tetrisim -v show it.
func status(v any) any {
	if d, ok := v.(time.Duration); ok {
		return float64(d.Microseconds()) / 1000
	}
	return v
}

// Object returns the keyed rows' values by key: a block of /v1/status.
func Object[T any](rows []Metric[T], s *T) map[string]any {
	obj := make(map[string]any, len(rows))
	for _, m := range rows {
		if m.Key != "" {
			obj[m.Key] = status(m.Get(s))
		}
	}
	return obj
}

// Lines returns one "group: key=value …" line per run of keyed rows that
// share a group, in table order.
func Lines[T any](rows []Metric[T], s *T) []string {
	var lines []string
	group := ""
	for _, m := range rows {
		if m.Group == "" || m.Key == "" {
			continue
		}
		if m.Group != group {
			group = m.Group
			lines = append(lines, group+":")
		}
		v := status(m.Get(s))
		if f, ok := v.(float64); ok {
			v = strconv.FormatFloat(f, 'f', 3, 64)
		}
		lines[len(lines)-1] += fmt.Sprintf(" %s=%v", m.Key, v)
	}
	return lines
}

// Histogram is a fixed-bucket Prometheus-style cumulative histogram. It has
// no lock: its owner guards Observe and hands readers a Clone.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; an implicit +Inf follows
	counts []uint64  // per-bucket (non-cumulative) counts; last is +Inf
	sum    float64
}

// NewHistogram returns an empty histogram over the given upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe counts one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
}

// Clone returns a copy that later Observes do not change.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// prom writes the histogram's samples: cumulative buckets, sum and count.
func (h *Histogram) prom(b *strings.Builder, name string) {
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i]
		// 'f': no exponent at any magnitude, the way Prometheus clients expect.
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(ub, 'f', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, cum, name, h.sum, name, cum)
}
