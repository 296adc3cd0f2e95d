package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/trace"
)

// obsDaemon builds a daemon with a shared tracer wired into both the
// scheduler and the HTTP server, plus one pending job.
func obsDaemon(t *testing.T) (*core.Scheduler, *Server, *httptest.Server) {
	t.Helper()
	c := cluster.RC80(true)
	tr := trace.New(1024)
	sched := core.New(c, core.Config{PlanAhead: 48, Tracer: tr})
	daemon := NewServer(sched, c.N()).SetTracer(tr)
	ts := httptest.NewServer(daemon.Handler())
	t.Cleanup(ts.Close)
	return sched, daemon, ts
}

func postBody(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestErrorPathsLeaveSchedulerUntouched drives every rejection path and
// asserts both the status code and that no scheduler state changed: no job
// enqueued, no cycle run, no solve executed.
func TestErrorPathsLeaveSchedulerUntouched(t *testing.T) {
	sched, _, ts := obsDaemon(t)

	cases := []struct {
		name, path, body string
		wantCode         int
	}{
		{"malformed submit body", "/v1/submit", `[{"id": 1, "class":]`, http.StatusBadRequest},
		{"submit body wrong type", "/v1/submit", `[{"id": "one"}]`, http.StatusBadRequest},
		{"unknown job class", "/v1/submit", `[{"id":1,"class":"??","type":"GPU","k":1,"base_runtime":1}]`, http.StatusBadRequest},
		{"nonpositive gang", "/v1/submit", `[{"id":1,"class":"BE","type":"GPU","k":0,"base_runtime":1}]`, http.StatusBadRequest},
		{"malformed cycle body", "/v1/cycle", `{"now": 0, "free": [1,`, http.StatusBadRequest},
		{"empty cycle body", "/v1/cycle", ``, http.StatusBadRequest},
		{"empty submit batch", "/v1/submit", `[]`, http.StatusBadRequest},
		{"cycle node out of range", "/v1/cycle", `{"now":0,"free":[99999]}`, http.StatusBadRequest},
		{"cycle negative node", "/v1/cycle", `{"now":0,"free":[-1]}`, http.StatusBadRequest},
		{"malformed completion body", "/v1/completions", `nope`, http.StatusBadRequest},
		{"completion for unknown job", "/v1/completions", `{"job_id":1234,"now":0}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp := postBody(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
	}

	if n := sched.Pending(); n != 0 {
		t.Errorf("rejected requests left %d pending jobs in the scheduler", n)
	}
	if sched.Stats.Solves != 0 {
		t.Errorf("rejected cycle requests ran %d solves", sched.Stats.Solves)
	}
	var st StatusResponse
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.Running != 0 || st.Cycles != 0 {
		t.Errorf("status after rejections = %+v, want untouched", st)
	}
	if st.Admission == nil || st.Admission.Queued != 0 {
		t.Errorf("admission after rejections = %+v, want an empty queue", st.Admission)
	}
}

// TestBodyEndsAtFirstValue pins what the scheduler-side endpoints have always
// done with a body that goes on after its first JSON value: they read the
// value and ignore the rest, garbage or not.
func TestBodyEndsAtFirstValue(t *testing.T) {
	sched, _, ts := obsDaemon(t)
	admitOne(t, ts.URL, `{"id":7,"class":"SLO","type":"Unconstrained","k":2,"base_runtime":20,"slowdown":1,"deadline":500}`)
	cases := []struct {
		name, path, body string
		wantCode         int
	}{
		{"second value after a cycle", "/v1/cycle", `{"now":0,"free":[0,1]}` + "\n" + `{"now":9,"free":[99999]}`, http.StatusOK},
		{"brace after a completion", "/v1/completions", `{"job_id":7,"now":20}}`, http.StatusNoContent},
		{"value cut short", "/v1/cycle", `{"now":20,"free":[0,1`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if resp := postBody(t, ts.URL+tc.path, tc.body); resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
	}
	if n := sched.Pending(); n != 0 {
		t.Errorf("%d jobs pending, want job 7 launched by the cycle and completed", n)
	}
}

// TestCompletionBeforeLaunch: a completion for a job the daemon holds but has
// not launched is refused with 409 and changes nothing. It used to answer 204
// and finish the job in core while the job stayed in core's pending queue: the
// next cycle launched it, its real completion got a 404, and core kept its
// nodes running for good.
func TestCompletionBeforeLaunch(t *testing.T) {
	sched, _, ts := obsDaemon(t)
	admitOne(t, ts.URL, `{"id":3,"class":"SLO","type":"Unconstrained","k":2,"base_runtime":20,"slowdown":1,"deadline":500}`)
	if resp := postBody(t, ts.URL+"/v1/completions", `{"job_id":3,"now":0}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("completion before launch: status = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	if sched.Pending() != 1 || sched.Running() != 0 {
		t.Fatalf("after the refused completion: %d pending, %d running; want the job still pending", sched.Pending(), sched.Running())
	}
	free, _ := json.Marshal(CycleRequest{Now: 0, Free: []int{0, 1, 2, 3}})
	var cr CycleResponse
	if err := json.NewDecoder(postBody(t, ts.URL+"/v1/cycle", string(free)).Body).Decode(&cr); err != nil || len(cr.Decisions) != 1 {
		t.Fatalf("cycle: %v %+v, want the job launched", err, cr)
	}
	if resp := postBody(t, ts.URL+"/v1/completions", `{"job_id":3,"now":20}`); resp.StatusCode != http.StatusNoContent {
		t.Errorf("completion after launch: status = %d, want %d", resp.StatusCode, http.StatusNoContent)
	}
	if sched.Pending() != 0 || sched.Running() != 0 {
		t.Errorf("after the completion: %d pending, %d running; want neither", sched.Pending(), sched.Running())
	}
}

// runOneCycle submits a job and runs one scheduling cycle over HTTP, which
// drains the job into the scheduler and launches it.
func runOneCycle(t *testing.T, ts *httptest.Server, universe int) {
	t.Helper()
	resp := postSubmit(t, ts.URL,
		[]byte(`[{"id":0,"class":"SLO","type":"Unconstrained","k":2,"base_runtime":20,"slowdown":1,"deadline":500}]`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status = %d", resp.StatusCode)
	}
	free := make([]int, 0, universe)
	for i := 0; i < universe; i++ {
		free = append(free, i)
	}
	body, _ := json.Marshal(CycleRequest{Now: 0, Free: free})
	resp = postBody(t, ts.URL+"/v1/cycle", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cycle status = %d", resp.StatusCode)
	}
	var cr CycleResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Decisions) != 1 {
		t.Fatalf("decisions = %+v, want 1 launch", cr.Decisions)
	}
}

// TestStatusExposesSolverStats: after a cycle, /v1/status carries the
// cumulative SolveStats/LPStats block.
func TestStatusExposesSolverStats(t *testing.T) {
	_, _, ts := obsDaemon(t)
	runOneCycle(t, ts, 80)

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 1 {
		t.Errorf("cycles = %d, want 1", st.Cycles)
	}
	if st.Solver == nil {
		t.Fatal("status has no solver block")
	}
	// The block decodes as JSON numbers; a key the table stops rendering reads 0
	// here and is reported by name in TestTelemetryGolden.
	n := func(key string) float64 { v, _ := st.Solver[key].(float64); return v }
	if n("solves") < 1 || n("mean_solve_millis") < 0 || n("max_solve_millis") < n("mean_solve_millis") {
		t.Errorf("solver block implausible: %+v", st.Solver)
	}
	if n("lp_warm_hits")+n("lp_cold_starts") == 0 {
		t.Errorf("solver block reports no LPs: %+v", st.Solver)
	}
	// One cold cycle fingerprints its components without hitting; the status
	// block must surface the miss (and a zero hit rate) rather than omit it.
	if n("reuse_misses") == 0 {
		t.Errorf("solver block reports no fingerprinted components: %+v", st.Solver)
	}
	if n("reuse_hits") != 0 || n("reuse_hit_rate") != 0 {
		t.Errorf("single cold cycle cannot have replayed: %+v", st.Solver)
	}
	// Same for the cycle front end: one cold cycle generates and compiles
	// every job fresh, so misses and work counters move while hits stay zero.
	if n("expr_misses") == 0 || n("compile_jobs") == 0 {
		t.Errorf("solver block reports no front-end work: %+v", st.Solver)
	}
	if n("expr_hits") != 0 || n("compile_skips") != 0 || n("compile_skip_rate") != 0 {
		t.Errorf("single cold cycle cannot have hit the front-end caches: %+v", st.Solver)
	}
	if n("generate_millis") <= 0 || n("compile_millis") <= 0 {
		t.Errorf("front-end timers missing from status: %+v", st.Solver)
	}
}

// TestMetricsEndpoint: /metrics serves Prometheus text format with the
// documented series, including the solve-latency histogram.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := obsDaemon(t)
	runOneCycle(t, ts, 80)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE tetrisched_cycles_total counter",
		"tetrisched_cycles_total 1",
		"tetrisched_decisions_total 1",
		"tetrisched_jobs_running 1",
		"# TYPE tetrisched_solve_latency_seconds histogram",
		`tetrisched_solve_latency_seconds_bucket{le="+Inf"} 1`,
		"tetrisched_solve_latency_seconds_count 1",
		"tetrisched_solve_latency_seconds_sum",
		"tetrisched_solver_solves_total",
		"tetrisched_solver_lp_warm_hit_rate",
		"tetrisched_solver_reuse_hits_total",
		"tetrisched_solver_reuse_misses_total",
		"tetrisched_solver_reuse_hit_rate",
		"tetrisched_solver_expr_cache_hits_total",
		"tetrisched_solver_expr_cache_misses_total",
		"tetrisched_solver_compile_skips_total",
		"tetrisched_solver_compile_jobs_total",
		"tetrisched_solver_compile_skip_rate",
		"# TYPE tetrisched_solver_generate_seconds_total counter",
		"# TYPE tetrisched_solver_compile_seconds_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and ordered.
	if !strings.Contains(text, `tetrisched_solve_latency_seconds_bucket{le="0.001"}`) {
		t.Errorf("first histogram bucket missing:\n%s", text)
	}
}

// TestTraceEndpoint: /v1/trace returns a well-formed Chrome trace of the
// ring, and 404s when tracing is disabled.
func TestTraceEndpoint(t *testing.T) {
	_, _, ts := obsDaemon(t)
	runOneCycle(t, ts, 80)

	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n, err := trace.ValidateChrome(body)
	if err != nil {
		t.Fatalf("trace endpoint served malformed Chrome JSON: %v", err)
	}
	if n == 0 {
		t.Fatal("trace endpoint served no events")
	}
	if !strings.Contains(string(body), `"cycle"`) || !strings.Contains(string(body), `"solve"`) {
		t.Errorf("trace missing expected spans")
	}

	// POST is rejected.
	if resp := postBody(t, ts.URL+"/v1/trace", "{}"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/trace status = %d", resp.StatusCode)
	}

	// Tracing disabled → 404.
	c := cluster.RC80(false)
	bare := httptest.NewServer(NewServer(core.New(c, core.Config{PlanAhead: 48}), c.N()).Handler())
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("trace without tracer status = %d, want 404", resp2.StatusCode)
	}
}
