package metrics

import (
	"math"
	"testing"
	"time"

	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

func TestSummarize(t *testing.T) {
	res := &sim.Result{Makespan: 100, BusyNodeSeconds: 500}
	add := func(class workload.Class, reserved, completed bool, submit, finish, deadline int64) {
		j := &workload.Job{ID: len(res.Stats), Class: class, Reserved: reserved, Submit: submit, Deadline: deadline}
		st := sim.JobStat{Job: j, Submitted: true, Completed: completed, Finish: finish}
		if !completed {
			st.Dropped = true
		}
		res.Stats = append(res.Stats, st)
	}
	// 2 accepted SLO: one met, one late.
	add(workload.SLO, true, true, 0, 50, 60)
	add(workload.SLO, true, true, 0, 80, 60)
	// 2 SLO w/o reservation: one met, one dropped.
	add(workload.SLO, false, true, 0, 40, 60)
	add(workload.SLO, false, false, 0, 0, 60)
	// 2 BE: latencies 10 and 30.
	add(workload.BestEffort, false, true, 0, 10, 0)
	add(workload.BestEffort, false, true, 10, 40, 0)

	s := Summarize("test", res, 10)
	if s.NumSLO != 4 || s.NumAccepted != 2 || s.NumNoRes != 2 || s.NumBE != 2 {
		t.Fatalf("counts: %+v", s)
	}
	if math.Abs(s.SLOAll-50) > 1e-9 {
		t.Errorf("SLOAll = %v", s.SLOAll)
	}
	if math.Abs(s.SLOAccepted-50) > 1e-9 {
		t.Errorf("SLOAccepted = %v", s.SLOAccepted)
	}
	if math.Abs(s.SLONoRes-50) > 1e-9 {
		t.Errorf("SLONoRes = %v", s.SLONoRes)
	}
	if math.Abs(s.MeanBELatency-20) > 1e-9 {
		t.Errorf("BE latency = %v", s.MeanBELatency)
	}
	if math.Abs(s.Utilization-0.5) > 1e-9 {
		t.Errorf("utilization = %v", s.Utilization)
	}
	if s.Incomplete != 0 {
		t.Errorf("incomplete = %d", s.Incomplete)
	}
	if s.String() == "" {
		t.Errorf("empty String()")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize("empty", &sim.Result{}, 10)
	if s.SLOAll != 0 || s.MeanBELatency != 0 {
		t.Errorf("empty summary nonzero: %+v", s)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if c.Len() != 5 {
		t.Fatalf("len = %d", c.Len())
	}
	if got := c.At(3); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("At(3) = %v", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v", got)
	}
	if got := c.Percentile(50); math.Abs(got-3) > 1e-9 {
		t.Errorf("p50 = %v", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := c.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := c.Percentile(25); math.Abs(got-2) > 1e-9 {
		t.Errorf("p25 = %v", got)
	}
	if got := c.Mean(); math.Abs(got-3) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	empty := NewCDF(nil)
	if empty.At(1) != 0 || empty.Percentile(50) != 0 || empty.Mean() != 0 {
		t.Errorf("empty CDF misbehaves")
	}
}

func TestDurationHelpers(t *testing.T) {
	ds := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond}
	c := NewDurationCDF(ds)
	if math.Abs(c.Percentile(100)-30) > 1e-9 {
		t.Errorf("duration CDF p100 = %v", c.Percentile(100))
	}
}
