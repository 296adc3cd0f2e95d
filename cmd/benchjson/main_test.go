package main

import (
	"io"
	"math"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
cpu: Fake CPU @ 2.00GHz
BenchmarkBatchedSolve24Serial-4   	    1000	    180000 ns/op	   50000 B/op	     400 allocs/op
BenchmarkBatchedSolve24Serial-4   	    1000	    200000 ns/op	   50000 B/op	     400 allocs/op
BenchmarkBatchedSolve48Serial-4   	     500	    600000 ns/op	  120000 B/op	     900 allocs/op
PASS
`

func TestBuildReport(t *testing.T) {
	rep, err := buildReport(strings.NewReader(benchOutput), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Fake CPU @ 2.00GHz" {
		t.Errorf("environment lines misparsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b24 := rep.Benchmarks[0]
	if b24.Name != "BenchmarkBatchedSolve24Serial" || b24.Runs != 2 {
		t.Errorf("first summary = %+v", b24)
	}
	if b24.NsPerOpMin != 180000 || b24.NsPerOpMean != 190000 || b24.NsPerOpMax != 200000 {
		t.Errorf("ns/op min/mean/max = %v/%v/%v, want 180000/190000/200000",
			b24.NsPerOpMin, b24.NsPerOpMean, b24.NsPerOpMax)
	}
	if b24.BytesPerOp != 50000 || b24.AllocsPerOp != 400 {
		t.Errorf("memory stats = %v B/op %v allocs/op", b24.BytesPerOp, b24.AllocsPerOp)
	}
}

// TestOneSidedBenchmarksNeverFail pins the gate semantics: a comparison
// where the two reports share no benchmark at all must warn-and-skip every
// entry and exit clean, whichever side is missing.
func TestOneSidedBenchmarksNeverFail(t *testing.T) {
	base := &report{Benchmarks: []summary{{Name: "BenchmarkOnlyInBaseline", NsPerOpMean: 100}}}
	cur := &report{Benchmarks: []summary{{Name: "BenchmarkOnlyInCurrent", NsPerOpMean: 9999999}}}
	var out strings.Builder
	if compareReports(base, cur, 0.0, 0.0, &out) {
		t.Errorf("disjoint benchmark sets must not fail the gate:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "skipped"); got != 2 {
		t.Errorf("want 2 skip warnings, got %d:\n%s", got, out.String())
	}
}

// TestCustomMetricsCaptured: b.ReportMetric units beyond the standard three
// land in the summary's Metrics map (averaged over repetitions).
func TestCustomMetricsCaptured(t *testing.T) {
	const out = `goos: linux
BenchmarkLoadgenAdmission-4	100000	10000 ns/op	50000 jobs/sec	2000000 p99-ns	0.10 reject-rate	100 B/op	2 allocs/op
BenchmarkLoadgenAdmission-4	100000	12000 ns/op	70000 jobs/sec	4000000 p99-ns	0.30 reject-rate	100 B/op	2 allocs/op
PASS
`
	rep, err := buildReport(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.NsPerOpMean != 11000 || b.BytesPerOp != 100 || b.AllocsPerOp != 2 {
		t.Errorf("standard stats misparsed: %+v", b)
	}
	want := map[string]float64{"jobs/sec": 60000, "p99-ns": 3000000, "reject-rate": 0.20}
	for unit, v := range want {
		if got := b.Metrics[unit]; math.Abs(got-v) > 1e-9*v {
			t.Errorf("Metrics[%q] = %v, want %v", unit, got, v)
		}
	}
}

func TestBuildReportEmpty(t *testing.T) {
	if _, err := buildReport(strings.NewReader("PASS\n"), io.Discard); err == nil {
		t.Error("no benchmark lines must be an error")
	}
}

// TestCompareTwoTierGate pins the noise-tolerant gate semantics: deltas are
// judged on min ns/op; a single noisy flier between the geomean threshold
// and the per-benchmark limit warns without failing; the gate fails on
// either an isolated blowup past -max-single or suite-wide geomean drift.
func TestCompareTwoTierGate(t *testing.T) {
	mk := func(deltas ...float64) *report {
		rep := &report{}
		for i, d := range deltas {
			rep.Benchmarks = append(rep.Benchmarks, summary{
				Name:        "Benchmark" + string(rune('A'+i)),
				NsPerOpMin:  1000 * (1 + d),
				NsPerOpMean: 1100 * (1 + d),
			})
		}
		return rep
	}
	base := mk(0, 0, 0, 0, 0)

	// One +25% flier among stable benchmarks: per-benchmark noise, the
	// suite geomean stays under threshold — warn, not a failure.
	var out strings.Builder
	if compareReports(base, mk(0, 0.25, 0, 0, 0), 0.10, 0.50, &out) {
		t.Errorf("a lone +25%% flier under the per-benchmark limit must not fail:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "warn") || strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("the flier must be labeled warn, nothing REGRESSED:\n%s", out.String())
	}

	// One +80% blowup: past the per-benchmark limit, fails even though the
	// 5-benchmark geomean (+12.5%) alone might drown in suite noise.
	out.Reset()
	if !compareReports(base, mk(0, 0.80, 0, 0, 0), 0.20, 0.50, &out) {
		t.Errorf("an isolated +80%% blowup must fail the gate:\n%s", out.String())
	}

	// Every benchmark +15%: systemic drift, the geomean catches it even
	// though no single benchmark is past the per-benchmark limit.
	out.Reset()
	if !compareReports(base, mk(0.15, 0.15, 0.15, 0.15, 0.15), 0.10, 0.50, &out) {
		t.Errorf("suite-wide +15%% drift must fail via the geomean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "suite geomean") {
		t.Errorf("output must report the suite geomean:\n%s", out.String())
	}

	// Min is the judged statistic: mean +30% with min +2% is repetition
	// noise, not a regression.
	out.Reset()
	base1 := &report{Benchmarks: []summary{{Name: "BenchmarkA", NsPerOpMin: 1000, NsPerOpMean: 1100}}}
	noisy := &report{Benchmarks: []summary{{Name: "BenchmarkA", NsPerOpMin: 1020, NsPerOpMean: 1430}}}
	if compareReports(base1, noisy, 0.10, 0.50, &out) {
		t.Errorf("min +2%% with mean +30%% is repetition noise, must pass:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "+2.0% (mean   +30.0%)  ok") {
		t.Errorf("noisy-mean benchmark must be judged on its min delta:\n%s", out.String())
	}
}

func TestCompareReports(t *testing.T) {
	base := &report{Date: "2026-01-01T00:00:00Z", Benchmarks: []summary{
		{Name: "BenchmarkA", NsPerOpMean: 1000},
		{Name: "BenchmarkB", NsPerOpMean: 1000},
		{Name: "BenchmarkGone", NsPerOpMean: 500},
	}}
	cur := &report{Benchmarks: []summary{
		{Name: "BenchmarkA", NsPerOpMean: 1050}, // +5%: under threshold
		{Name: "BenchmarkB", NsPerOpMean: 1300}, // +30%: pushes the 2-benchmark geomean to +16.8%
		{Name: "BenchmarkNew", NsPerOpMean: 42}, // no baseline
	}}

	// Reports without min tracking fall back to mean deltas throughout.
	var out strings.Builder
	if !compareReports(base, cur, 0.10, 0.50, &out) {
		t.Error("a +16.8% suite geomean at a 10% threshold must fail the comparison")
	}
	text := out.String()
	for _, want := range []string{"BenchmarkA", "REGRESSED", "warning: no baseline, skipped", "warning: in baseline but not run, skipped"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison output missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "REGRESSED") != 1 || !strings.Contains(text, "suite geomean") {
		t.Errorf("want exactly one REGRESSED line, on the suite geomean:\n%s", text)
	}

	out.Reset()
	if compareReports(base, cur, 0.50, 0.50, &out) {
		t.Error("a +16.8% geomean at a 50% threshold must pass")
	}

	// An improvement is never a regression, whatever the threshold.
	out.Reset()
	fast := &report{Benchmarks: []summary{{Name: "BenchmarkA", NsPerOpMean: 700}}}
	if compareReports(base, fast, 0.0, 0.0, &out) {
		t.Error("a -30% improvement must pass even at threshold 0")
	}
}

// TestCompareCarriesCustomMetrics: custom metrics present on both sides of a
// comparison are printed as info lines (so compile-skip-rate and friends
// survive into the gate output) but never affect the verdict — the metric
// can collapse to zero while ns/op improves and the gate must stay green.
func TestCompareCarriesCustomMetrics(t *testing.T) {
	base := &report{Benchmarks: []summary{{
		Name: "BenchmarkCycleFrontEndChurn0", NsPerOpMean: 200, NsPerOpMin: 200,
		Metrics: map[string]float64{"compile-skip-rate": 0.97, "frontend-ns": 1300},
	}}}
	cur := &report{Benchmarks: []summary{{
		Name: "BenchmarkCycleFrontEndChurn0", NsPerOpMean: 100, NsPerOpMin: 100,
		Metrics: map[string]float64{"compile-skip-rate": 0, "frontend-ns": 1200},
	}}}
	var out strings.Builder
	if compareReports(base, cur, 0.10, 0.50, &out) {
		t.Errorf("custom-metric changes must never fail the gate:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{"compile-skip-rate", "frontend-ns", "(info)"} {
		if !strings.Contains(got, want) {
			t.Errorf("comparison output missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "compile-skip-rate") > strings.Index(got, "frontend-ns") {
		t.Errorf("metric info lines must print in sorted order:\n%s", got)
	}
}

// TestCompareReportsMemoryDeltas: B/op and allocs/op of both sides are
// printed with their delta as info lines and never move the verdict, even
// when memory triples while time improves.
func TestCompareReportsMemoryDeltas(t *testing.T) {
	base := &report{Benchmarks: []summary{{
		Name: "BenchmarkCompileBatch", NsPerOpMean: 200, NsPerOpMin: 200, BytesPerOp: 1000, AllocsPerOp: 40,
	}}}
	cur := &report{Benchmarks: []summary{{
		Name: "BenchmarkCompileBatch", NsPerOpMean: 150, NsPerOpMin: 150, BytesPerOp: 3000, AllocsPerOp: 10,
	}}}
	var out strings.Builder
	if compareReports(base, cur, 0.10, 0.50, &out) {
		t.Errorf("a memory change must never fail the gate:\n%s", out.String())
	}
	for _, want := range []string{"1000 ->         3000 B/op", "+200.0%", "40 ->           10 allocs/op", "-75.0%", "(info)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output missing %q:\n%s", want, out.String())
		}
	}
}
