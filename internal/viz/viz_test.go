package viz

import (
	"bytes"
	"strings"
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

func sampleResult() (*cluster.Cluster, *sim.Result) {
	c := cluster.NewBuilder().AddRack("r0", 2, nil).AddRack("r1", 2, nil).Build()
	res := &sim.Result{Makespan: 40}
	res.Stats = []sim.JobStat{
		{
			Job:       &workload.Job{ID: 0, Class: workload.SLO, Type: workload.Unconstrained, K: 2},
			Submitted: true, Started: true, Completed: true,
			Start: 0, Finish: 20, Nodes: []int{0, 1},
		},
		{
			Job:       &workload.Job{ID: 1, Class: workload.BestEffort, Type: workload.MPI, K: 2},
			Submitted: true, Started: true, Completed: true,
			Start: 20, Finish: 40, Nodes: []int{2, 3},
		},
		{
			Job:       &workload.Job{ID: 2, Class: workload.SLO, Type: workload.GPU, K: 1},
			Submitted: true, // never started (e.g. dropped)
		},
	}
	return c, res
}

func TestRenderGrid(t *testing.T) {
	c, res := sampleResult()
	var buf bytes.Buffer
	Render(&buf, c, res, Options{MaxCols: 4}) // 40 s in 10 s columns
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("short output:\n%s", out)
	}
	// Node rows: job A on nodes 0-1 for the first two columns, job B on
	// nodes 2-3 for the last two.
	rowFor := func(name string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, name) {
				return l
			}
		}
		t.Fatalf("no row for %s in:\n%s", name, out)
		return ""
	}
	if r := rowFor("r0/n0"); !strings.Contains(r, "AA..") {
		t.Errorf("row r0/n0 = %q, want AA..", r)
	}
	if r := rowFor("r1/n1"); !strings.Contains(r, "..BB") {
		t.Errorf("row r1/n1 = %q, want ..BB", r)
	}
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "A=job0") {
		t.Errorf("legend missing:\n%s", out)
	}
	// The never-started job must not appear in the legend.
	if strings.Contains(out, "job2") {
		t.Errorf("unstarted job rendered:\n%s", out)
	}
}

func TestRenderAutoStepAndCaps(t *testing.T) {
	c, res := sampleResult()
	var buf bytes.Buffer
	Render(&buf, c, res, Options{MaxCols: 8, MaxRows: 2})
	out := buf.String()
	if strings.Contains(out, "r1/n0") {
		t.Errorf("MaxRows not honored:\n%s", out)
	}
}

func TestRenderEmptyResult(t *testing.T) {
	c := cluster.RC80(false)
	var buf bytes.Buffer
	Render(&buf, c, &sim.Result{}, Options{MaxRows: 4})
	if !strings.Contains(buf.String(), "t=0") {
		t.Errorf("empty render malformed:\n%s", buf.String())
	}
}
