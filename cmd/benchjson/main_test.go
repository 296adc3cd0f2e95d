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
