package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// quickRun executes one workload at the quick scale with the trace files
// going to a temporary directory.
func quickRun(t *testing.T, w *workloadDef, traced bool) *run {
	t.Helper()
	old := outDir
	outDir = t.TempDir()
	defer func() { outDir = old }()
	return execute(w, 1, 0, traced, quickScale)
}

// TestQuickWorkloads runs every workload to completion at the quick scale,
// untraced and traced, and checks the result line: every declared metric is
// there with its unit, end-to-end metrics are never zero, the oracle is
// satisfied, and a repeatable workload's schedule is the same both times.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && (w.name == "frontdoor_open" || w.name == "resident_churn50") {
				t.Skip("slow under -race")
			}
			var hashes [2]uint64
			for i, traced := range []bool{false, true} {
				r := quickRun(t, w, traced)
				for _, p := range r.problems {
					t.Errorf("traced=%v: %s", traced, p)
				}
				if r.failed != 0 || r.ops == 0 {
					t.Errorf("traced=%v: %d ops, %d failed", traced, r.ops, r.failed)
				}
				res := printed(t, r)
				decls := endToEnd
				if traced {
					decls = perLayer
				}
				if len(res.Metrics) != len(decls) {
					t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s not printed", traced, d.name)
					case m.Unit != d.unit:
						t.Errorf("%s: unit %q, declared %q", d.name, m.Unit, d.unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be zero", d.name, m.Value)
					}
				}
				hashes[i] = r.scheduleHash()
			}
			if w.repeatable && hashes[0] != hashes[1] {
				t.Errorf("schedule hash differs between the untraced and the traced run: %x vs %x", hashes[0], hashes[1])
			}
		})
	}
}

// printed runs r.print and parses the last line it wrote.
func printed(t *testing.T, r *run) result {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r.print(f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

func TestTracedRunWritesChromeTrace(t *testing.T) {
	old := outDir
	outDir = t.TempDir()
	defer func() { outDir = old }()
	execute(findWorkload("trace_gshet"), 7, 0, true, quickScale)
	data, err := os.ReadFile(filepath.Join(outDir, "trace_gshet.seed7.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

// TestPercentileRule: a run whose steady view is too small for ten samples
// beyond its p95 is not correct.
func TestPercentileRule(t *testing.T) {
	if minSteadyCycles != 200 {
		t.Fatalf("minSteadyCycles = %d: ten samples beyond a p95 take 200", minSteadyCycles)
	}
	w := findWorkload("resident_churn1")
	if r := quickRun(t, w, false); !r.correct() || r.steady().n() >= minSteadyCycles {
		t.Fatalf("quick run: correct=%v with %d steady cycles; the check below is vacuous", r.correct(), r.steady().n())
	}
	sc := quickScale
	sc.minSteady = minSteadyCycles
	if r := execute(w, 1, 0, false, sc); r.correct() {
		t.Errorf("a run with %d steady cycles passed as correct", r.steady().n())
	}
}

// TestSteadyView pins the reductions over rounds: per cycle and input, the
// lower quartile of what the rounds took; busy time likewise per input.
func TestSteadyView(t *testing.T) {
	rep := func(busyMS float64, cycles ...float64) *repRec {
		return &repRec{cycles: cycles, busy: time.Duration(busyMS * 1e6), disposed: 10, alloc: uint64(len(cycles)) << 20}
	}
	perCycle := func(r *run) float64 {
		return r.allocPer(func(rp *repRec) float64 { return float64(len(rp.cycles)) }) / (1 << 20)
	}
	r := &run{w: &workloadDef{inputs: 2}, reps: []*repRec{
		rep(7, 5, 1), rep(9, 9), // round 0: input 0, input 1
		rep(5, 3, 1), rep(8, 8),
		rep(9, 4, 4), rep(9, 7),
		rep(4, 2, 1), rep(7, 6, 6), // a round that ran one cycle longer
		rep(3, 1, 1), rep(6, 5),
	}}
	if got, want := r.steady().v, []float64{2, 1, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("steady = %v, want %v (second smallest of five rounds)", got, want)
	}
	// 20 jobs over the second smallest busy time of each input: 4 + 7 ms.
	if got, want := r.jobsPerSecond(), 20/0.011; math.Abs(got-want) > 1e-6 {
		t.Errorf("%v jobs/s, want %v", got, want)
	}
	// One megabyte per cycle, at each input's median cycle count.
	if got := perCycle(r); math.Abs(got-1) > 1e-9 {
		t.Errorf("%v MB per cycle, want 1", got)
	}
	r = &run{w: &workloadDef{}, reps: []*repRec{rep(40, 20, 20), rep(10, 5, 5), rep(30, 15, 15)}}
	if got, want := r.steady().v, []float64{5, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("three rounds: steady = %v, want %v (the minimum)", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a: 10..50 is covered once
		{name: "c", start: 90, end: 120, parent: 0}, // runs past the parent: clipped at 100
		{name: "aa", start: 12, end: 18, parent: 1},
		{name: "lone", start: 200, end: 260, parent: -1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

// pendingCheck asserts after every cycle that the harness's mirror of the
// pending set has as many jobs as the scheduler says it has.
type pendingCheck struct {
	*probe
	t *testing.T
}

func (c pendingCheck) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	cr := c.probe.Cycle(now, free)
	if got, want := len(c.or.pending), c.inner.Pending(); got != want {
		c.t.Fatalf("t=%d: mirror holds %d pending jobs, scheduler %d", now, got, want)
	}
	if got, want := len(c.or.running), c.inner.Running(); got != want {
		c.t.Fatalf("t=%d: mirror holds %d running jobs, scheduler %d", now, got, want)
	}
	return cr
}

func TestMirrorMatchesScheduler(t *testing.T) {
	for _, shards := range []int{0, 4} {
		c := cluster.RC256(true)
		mix := workload.GSHET(80)
		mix.TargetUtil = 0.9 // a backlog, so the pending set is not trivially empty
		jobs, err := perturbedTrace(mix, c, traceBaseSeed, 5, traceJitter)
		if err != nil {
			t.Fatal(err)
		}
		sched := core.New(c, core.Config{CyclePeriod: cyclePeriod, PlanAhead: tracePlanAhead, Shards: shards})
		p := newProbe(sched, c, "test", newRecorder(), &captureSet{})
		_, err = sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: pendingCheck{p, t},
			Plan: rayon.NewPlan(c.N(), cyclePeriod), CyclePeriod: cyclePeriod})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.or.violations) > 0 {
			t.Errorf("shards=%d: oracle: %v", shards, p.or.violations)
		}
		if p.pendingMax < 2 {
			t.Errorf("shards=%d: pending set never held two jobs; the check is vacuous", shards)
		}
	}
}

func TestOracleCatchesViolations(t *testing.T) {
	job := func(id, k int) *workload.Job { return &workload.Job{ID: id, K: k} }
	free := func(nodes ...int) *bitset.Set { return bitset.FromIndices(8, nodes...) }
	for _, tc := range []struct {
		name string
		cr   sim.CycleResult
		want string
	}{
		{"clean", sim.CycleResult{Decisions: []sim.Decision{{Job: job(1, 2), Nodes: []int{0, 1}}, {Job: job(2, 1), Nodes: []int{2}}}}, ""},
		{"not pending", sim.CycleResult{Decisions: []sim.Decision{{Job: job(9, 1), Nodes: []int{0}}}}, "was not pending"},
		{"wrong width", sim.CycleResult{Decisions: []sim.Decision{{Job: job(1, 2), Nodes: []int{0}}}}, "wants [2,2]"},
		{"busy node", sim.CycleResult{Decisions: []sim.Decision{{Job: job(2, 1), Nodes: []int{5}}}}, "not free"},
		{"double booking", sim.CycleResult{Decisions: []sim.Decision{{Job: job(1, 2), Nodes: []int{0, 1}}, {Job: job(2, 1), Nodes: []int{1}}}}, "two jobs"},
		{"bad drop", sim.CycleResult{Dropped: []*workload.Job{job(9, 1)}}, "dropped job 9"},
		{"bad preemption", sim.CycleResult{Preempted: []*workload.Job{job(1, 2)}}, "not running"},
	} {
		o := newOracle(8)
		o.submit(job(1, 2))
		o.submit(job(2, 1))
		ok := o.check(4, free(0, 1, 2, 3), &tc.cr)
		switch {
		case tc.want == "" && !ok:
			t.Errorf("%s: flagged %v", tc.name, o.violations)
		case tc.want != "" && (ok || !strings.Contains(o.violations[0], tc.want)):
			t.Errorf("%s: violations %v, want one containing %q", tc.name, o.violations, tc.want)
		}
	}
	// The hash covers placement, not just which jobs launched.
	a, b := newOracle(8), newOracle(8)
	for _, o := range []*oracle{a, b} {
		o.submit(job(1, 2))
	}
	a.check(0, free(0, 1, 2), &sim.CycleResult{Decisions: []sim.Decision{{Job: job(1, 2), Nodes: []int{0, 1}}}})
	b.check(0, free(0, 1, 2), &sim.CycleResult{Decisions: []sim.Decision{{Job: job(1, 2), Nodes: []int{0, 2}}}})
	if a.hash == b.hash {
		t.Error("different placements hash the same")
	}
}

func TestCaptureSetKeepsEvenSample(t *testing.T) {
	c := cluster.RC256(false)
	p := newProbe(core.New(c, core.Config{}), c, "test", newRecorder(), &captureSet{})
	for i := 0; i < 5000; i++ {
		p.caps.offer(p, int64(i))
	}
	n := len(p.caps.items)
	if n < captureTarget || n >= 2*captureTarget {
		t.Fatalf("kept %d captures, want [%d,%d)", n, captureTarget, 2*captureTarget)
	}
	for i, cp := range p.caps.items {
		if cp.now != int64(i*p.caps.stride) {
			t.Fatalf("capture %d is cycle %d, want every %d-th", i, cp.now, p.caps.stride)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness: same workloads, the
// end-to-end metrics exactly, per-layer metrics a subset, units equal.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, the harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the harness runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	units := func(decls []decl) map[string]string {
		m := make(map[string]string)
		for _, d := range decls {
			if _, dup := m[d.name]; dup {
				t.Errorf("metric %s declared twice", d.name)
			}
			m[d.name] = d.unit
		}
		return m
	}
	check := func(kind string, listed []entry, declared map[string]string, bounded bool) {
		for _, e := range listed {
			unit, ok := declared[e.Name]
			if !ok {
				t.Errorf("%s metric %s is not one the harness emits", kind, e.Name)
				continue
			}
			if unit != e.Unit {
				t.Errorf("%s: unit %q listed, %q emitted", e.Name, e.Unit, unit)
			}
			if e.Better != "lower" && e.Better != "higher" {
				t.Errorf("%s: better = %q", e.Name, e.Better)
			}
			if bounded != (e.Bound != nil) {
				t.Errorf("%s: only end-to-end metrics carry a bound", e.Name)
			}
			// A metric that cannot hold a tenth is per-layer. setup_s cannot be:
			// the contract wants it end to end, with the largest bound.
			limit := 0.10
			if e.Name == "setup_s" {
				limit = 0.25
			}
			if e.Bound != nil && (*e.Bound <= 0 || *e.Bound > limit || math.IsNaN(*e.Bound)) {
				t.Errorf("%s: bound %v outside (0, %v]", e.Name, *e.Bound, limit)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, units(endToEnd), true)
	check("per-layer", doc.PerLayer, units(perLayer), false)
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics listed, the harness emits %d with tracing off", len(doc.EndToEnd), len(endToEnd))
	}
	if len(doc.PerLayer) != len(perLayer) || len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics listed, the harness emits %d on a traced run (at most 128 allowed)", len(doc.PerLayer), len(perLayer))
	}
	if want := []string{"go", "run", "./benchmark"}; strings.Join(doc.Command, " ") != strings.Join(want, " ") {
		t.Errorf("command = %v, want %v", doc.Command, want)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}
