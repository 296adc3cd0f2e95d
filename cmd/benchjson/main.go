// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record, so perf numbers land in a stable, diffable artifact
// (BENCH_milp.json) instead of scrollback. Repeated -count runs of the same
// benchmark are folded into min/mean/max summaries.
//
// Usage:
//
//	go test -run='^$' -bench=... -benchmem -count=6 . | go run ./cmd/benchjson -o BENCH_milp.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one benchmark result line.
type sample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	metrics     map[string]float64 // custom b.ReportMetric pairs, e.g. "jobs/sec"
}

// summary aggregates every -count repetition of one benchmark.
type summary struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	NsPerOpMin  float64            `json:"ns_per_op_min"`
	NsPerOpMean float64            `json:"ns_per_op_mean"`
	NsPerOpMax  float64            `json:"ns_per_op_max"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // custom metrics, mean over runs
}

type report struct {
	Date       string    `json:"date"`
	Goos       string    `json:"goos,omitempty"`
	Goarch     string    `json:"goarch,omitempty"`
	CPU        string    `json:"cpu,omitempty"`
	Benchmarks []summary `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := buildReport(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
}

// buildReport aggregates `go test -bench` output from r into a report,
// echoing every line to echo so the run stays visible.
func buildReport(r io.Reader, echo io.Writer) (report, error) {
	rep := report{Date: time.Now().UTC().Format(time.RFC3339)}
	samples := map[string][]sample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, s, ok := parseBenchLine(line)
			if ok {
				samples[name] = append(samples[name], s)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("read: %v", err)
	}
	if len(samples) == 0 {
		return rep, fmt.Errorf("no benchmark lines on stdin")
	}

	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := samples[name]
		sum := summary{Name: name, Runs: len(ss), NsPerOpMin: ss[0].nsPerOp, NsPerOpMax: ss[0].nsPerOp}
		for _, s := range ss {
			sum.NsPerOpMean += s.nsPerOp / float64(len(ss))
			if s.nsPerOp < sum.NsPerOpMin {
				sum.NsPerOpMin = s.nsPerOp
			}
			if s.nsPerOp > sum.NsPerOpMax {
				sum.NsPerOpMax = s.nsPerOp
			}
			sum.BytesPerOp += s.bytesPerOp / float64(len(ss))
			sum.AllocsPerOp += s.allocsPerOp / float64(len(ss))
			for unit, v := range s.metrics {
				if sum.Metrics == nil {
					sum.Metrics = map[string]float64{}
				}
				sum.Metrics[unit] += v / float64(len(ss))
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, sum)
	}
	return rep, nil
}

// parseBenchLine parses one "BenchmarkName-8  N  123 ns/op  45 B/op  6 allocs/op"
// line; the -cpus suffix is stripped so repetitions group under one name.
func parseBenchLine(line string) (string, sample, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return "", sample{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var s sample
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			s.nsPerOp, seen = v, true
		case "B/op":
			s.bytesPerOp = v
		case "allocs/op":
			s.allocsPerOp = v
		default:
			// Custom b.ReportMetric units (e.g. "jobs/sec", "p99-ns",
			// "reject-rate") ride along so derived benchmarks like the
			// loadgen gate keep their domain numbers in the artifact.
			if s.metrics == nil {
				s.metrics = map[string]float64{}
			}
			s.metrics[unit] = v
		}
	}
	return name, s, seen
}
