// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record, so perf numbers land in a stable, diffable artifact
// (BENCH_milp.json) instead of scrollback. Repeated -count runs of the same
// benchmark are folded into min/mean/max summaries.
//
// Usage:
//
//	go test -run='^$' -bench=... -benchmem -count=6 . | go run ./cmd/benchjson -o BENCH_milp.json
//
// With -compare, the aggregated stdin run is diffed against a committed
// baseline instead of written: per-benchmark ns/op deltas are printed and
// the exit status is non-zero when the run regressed. Deltas are judged on
// *min* ns/op (best of -count runs): scheduler-steal and frequency noise on
// a shared box is strictly additive, so the min filters it while a real
// regression shifts the whole distribution, min included. Mean deltas are
// printed alongside for context, and so are the B/op and allocs/op deltas
// (as info lines: they repeat exactly, ns/op on a shared box does not).
//
// The gate itself is two-tier, calibrated for noisy shared machines where
// identical-code back-to-back suite runs show per-benchmark min swings of
// ±20-35% but suite-wide geomean drift of only ±5%:
//
//   - the suite geomean of min ns/op deltas must stay within -threshold
//     (default +10%) — catches systemic slowdowns while per-benchmark noise
//     cancels across the suite;
//
//   - no single benchmark may regress beyond -max-single (default +50%) —
//     catches an isolated algorithmic blowup that a 17-benchmark geomean
//     would dilute below the suite threshold.
//
//     go test -run='^$' -bench=... -benchmem -count=6 . | go run ./cmd/benchjson -compare BENCH_milp.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
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
	compare := flag.String("compare", "", "baseline report to diff against; prints ns/op deltas instead of writing JSON")
	threshold := flag.Float64("threshold", 0.10, "suite-geomean min ns/op regression that fails -compare (0.10 = +10%)")
	maxSingle := flag.Float64("max-single", 0.50, "per-benchmark min ns/op regression that fails -compare regardless of the geomean")
	flag.Parse()

	rep, err := buildReport(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *compare != "" {
		buf, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(1)
		}
		var base report
		if err := json.Unmarshal(buf, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", *compare, err)
			os.Exit(1)
		}
		if compareReports(&base, &rep, *threshold, *maxSingle, os.Stdout) {
			os.Exit(1)
		}
		return
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

// compareReports prints each current benchmark's ns/op against the baseline
// and reports whether the run regressed. Deltas are judged on min ns/op
// (noise on a shared machine only ever adds time, so best-of-N is the stable
// statistic); the mean delta is printed for context. When a report predates
// min tracking (min == 0) the mean is used instead.
//
// The failure condition is two-tier: the suite-wide geomean of min deltas
// must stay within threshold (per-benchmark noise cancels across the suite,
// so the geomean tracks real machine/code drift), and no single benchmark
// may regress beyond maxSingle (an isolated blowup the geomean would
// dilute). Per-benchmark deltas between threshold and maxSingle are labeled
// "warn" but do not fail on their own. Benchmarks present in only one report
// are warned about and skipped — a partial `-bench` run or a freshly added
// benchmark must never fail the gate.
func compareReports(base, cur *report, threshold, maxSingle float64, w io.Writer) (regressed bool) {
	baseline := make(map[string]summary, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	fmt.Fprintf(w, "\nbaseline %s vs current run (geomean threshold %+.1f%%, per-benchmark limit %+.1f%%, on min ns/op):\n",
		base.Date, 100*threshold, 100*maxSingle)
	var logSum float64
	var compared int
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, c := range cur.Benchmarks {
		seen[c.Name] = true
		b, ok := baseline[c.Name]
		if !ok || b.NsPerOpMean <= 0 {
			fmt.Fprintf(w, "  %-40s %12.0f ns/op  warning: no baseline, skipped\n", c.Name, c.NsPerOpMean)
			continue
		}
		bMin, cMin := b.NsPerOpMin, c.NsPerOpMin
		if bMin <= 0 || cMin <= 0 {
			bMin, cMin = b.NsPerOpMean, c.NsPerOpMean
		}
		minDelta := (cMin - bMin) / bMin
		meanDelta := (c.NsPerOpMean - b.NsPerOpMean) / b.NsPerOpMean
		logSum += math.Log(1 + minDelta)
		compared++
		verdict := "ok"
		switch {
		case minDelta > maxSingle:
			verdict = "REGRESSED"
			regressed = true
		case minDelta > threshold:
			verdict = "warn"
		}
		fmt.Fprintf(w, "  %-40s %12.0f -> %12.0f min ns/op  %+7.1f%% (mean %+7.1f%%)  %s\n",
			c.Name, bMin, cMin, 100*minDelta, 100*meanDelta, verdict)
		// Memory per operation repeats exactly from run to run where ns/op on
		// a shared box does not, so its delta is the one number here a reader
		// can take at face value. Reported, never judged: the gate stays a
		// statement about time.
		if b.BytesPerOp > 0 || c.BytesPerOp > 0 {
			fmt.Fprintf(w, "    %-38s %12.0f -> %12.0f B/op       %s  (info)\n", "", b.BytesPerOp, c.BytesPerOp, pctDelta(b.BytesPerOp, c.BytesPerOp))
			fmt.Fprintf(w, "    %-38s %12.0f -> %12.0f allocs/op  %s  (info)\n", "", b.AllocsPerOp, c.AllocsPerOp, pctDelta(b.AllocsPerOp, c.AllocsPerOp))
		}
		// Custom b.ReportMetric values (e.g. compile-skip-rate, slo-pct) are
		// carried through for the reader but never judged: they measure
		// policy or cache quantities, not time, so the regression verdict
		// stays a pure ns/op statement.
		names := make([]string, 0, len(c.Metrics))
		for name := range c.Metrics {
			if _, ok := b.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "    %-38s %12.4g -> %12.4g %s  (info)\n", "", b.Metrics[name], c.Metrics[name], name)
		}
	}
	if compared > 0 {
		geomean := math.Expm1(logSum / float64(compared))
		verdict := "ok"
		if geomean > threshold {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "  %-40s %44s %+7.1f%%  %s\n", "suite geomean", "", 100*geomean, verdict)
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(w, "  %-40s %12.0f ns/op  warning: in baseline but not run, skipped\n", b.Name, b.NsPerOpMean)
		}
	}
	return regressed
}

// pctDelta renders cur against base as a signed percentage.
func pctDelta(base, cur float64) string {
	if base <= 0 {
		return "    n/a"
	}
	return fmt.Sprintf("%+7.1f%%", 100*(cur-base)/base)
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
