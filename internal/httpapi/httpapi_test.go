package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// TestEndToEndOverHTTP runs the full simulation harness against a TetriSched
// daemon living behind a real HTTP server: the §3.3 separation of allocation
// policy (daemon) from cluster/job state management (caller), exercised end
// to end.
func TestEndToEndOverHTTP(t *testing.T) {
	c := cluster.RC80(true)
	daemon := NewServer(core.New(c, core.Config{PlanAhead: 48}), c.N())
	ts := httptest.NewServer(daemon.Handler())
	defer ts.Close()

	jobs, err := workload.Generate(workload.GSHET(20), c, 13)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ts.URL)
	res, err := sim.Run(sim.Config{Cluster: c, Jobs: jobs, Scheduler: client})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("remote-scheduler run stalled")
	}
	sum := metrics.Summarize(client.Name(), res, c.N())
	if sum.Incomplete > 0 {
		t.Errorf("%d jobs incomplete over HTTP", sum.Incomplete)
	}
	if !strings.Contains(client.Name(), "TetriSched") {
		t.Errorf("client name = %q", client.Name())
	}
	t.Log(sum.String())
}

// TestRemoteMatchesLocal: the same workload scheduled locally and through
// the HTTP boundary must produce identical schedules (the transport is
// policy-free).
func TestRemoteMatchesLocal(t *testing.T) {
	c := cluster.RC80(true)
	mk := func() []*workload.Job {
		jobs, err := workload.Generate(workload.GSHET(15), c, 21)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}

	local, err := sim.Run(sim.Config{Cluster: c, Jobs: mk(), Scheduler: core.New(c, core.Config{PlanAhead: 48})})
	if err != nil {
		t.Fatal(err)
	}

	daemon := NewServer(core.New(c, core.Config{PlanAhead: 48}), c.N())
	ts := httptest.NewServer(daemon.Handler())
	defer ts.Close()
	remote, err := sim.Run(sim.Config{Cluster: c, Jobs: mk(), Scheduler: NewClient(ts.URL)})
	if err != nil {
		t.Fatal(err)
	}

	for i := range local.Stats {
		l, r := &local.Stats[i], &remote.Stats[i]
		if l.Start != r.Start || l.Finish != r.Finish || l.Dropped != r.Dropped {
			t.Fatalf("job %d diverged across the HTTP boundary: local{%d,%d,%v} remote{%d,%d,%v}",
				i, l.Start, l.Finish, l.Dropped, r.Start, r.Finish, r.Dropped)
		}
	}
}

func TestServerValidation(t *testing.T) {
	c := cluster.RC80(false)
	daemon := NewServer(core.New(c, core.Config{PlanAhead: 48}), c.N())
	ts := httptest.NewServer(daemon.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	drain := func() {
		t.Helper()
		if err := client.post("/v1/cycle", &CycleRequest{Now: 0}, nil); err != nil {
			t.Fatalf("drain cycle: %v", err)
		}
	}
	// Bad class rejected.
	if err := client.post("/v1/submit", []JobMsg{{ID: 1, Class: "??", Type: "GPU", K: 1, BaseRuntime: 1}}, nil); err == nil {
		t.Errorf("bad class accepted")
	}
	// A duplicate is refused while the first copy is queued, and dropped at
	// drain once the first has been admitted.
	good := []JobMsg{{ID: 2, Class: "BE", Type: "Unconstrained", K: 1, BaseRuntime: 10, Slowdown: 1}}
	if err := client.post("/v1/submit", good, nil); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	if err := client.post("/v1/submit", good, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("duplicate of a queued job: %v, want 400", err)
	}
	drain()
	if err := client.post("/v1/submit", good, nil); err != nil {
		t.Fatalf("resubmission after the drain: %v", err)
	}
	drain()
	// Unknown completion.
	if err := client.post("/v1/completions", &CompletionMsg{JobID: 99}, nil); err == nil {
		t.Errorf("unknown completion accepted")
	}
	// Out-of-range node in cycle.
	if err := client.post("/v1/cycle", &CycleRequest{Now: 0, Free: []int{9999}}, nil); err == nil {
		t.Errorf("bad free list accepted")
	}
	// A body over the cap is refused on every endpoint that reads one whole,
	// however valid the JSON at the end of it: without the cap the padded
	// cycle request below is served.
	huge := append(bytes.Repeat([]byte(" "), maxSubmitBody+1), `{"now":0,"free":[]}`...)
	for _, path := range []string{"/v1/cycle", "/v1/completions", "/v1/submit"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatalf("oversized POST on %s: %v", path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "exceeds") {
			t.Errorf("oversized POST on %s: %d %s, want 400 and the limit", path, resp.StatusCode, msg)
		}
	}
	// GET on a POST-only endpoint.
	if err := client.get("/v1/submit", &struct{}{}); err == nil || !strings.Contains(err.Error(), "405") {
		t.Errorf("GET on /v1/submit: %v, want 405", err)
	}
	// POST on the GET-only telemetry endpoints.
	for _, path := range []string{"/v1/status", "/metrics"} {
		if err := client.post(path, &struct{}{}, nil); err == nil || !strings.Contains(err.Error(), "405") {
			t.Errorf("POST on %s: %v, want 405", path, err)
		}
	}
	// Status works.
	var st StatusResponse
	if err := client.get("/v1/status", &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Universe != c.N() || st.Pending != 1 {
		t.Errorf("status = %+v", st)
	}
	dups := -1
	for _, ten := range st.Admission.Tenants {
		if ten.Name == DefaultTenant {
			dups = int(ten.RejectedDup)
		}
	}
	if dups != 1 {
		t.Errorf("%s tenant's rejected_dup = %d, want the resubmitted duplicate dropped at drain", DefaultTenant, dups)
	}
}

// TestSubmitRejectsUnpricedFields: on a 16-node front door, a job whose
// pricing fields make no sense on the cluster is refused with a 400 whose
// error names the field, and nothing is queued; the edge values on the valid
// side are admitted.
func TestSubmitRejectsUnpricedFields(t *testing.T) {
	_, ts := frontDoor(t, AdmissionConfig{})
	for i, tc := range []struct {
		job   string // the fields after the ID
		field string // named in the error; "" means admitted
	}{
		{`"class":"BE","type":"MPI","k":17,"base_runtime":10,"slowdown":1`, "k"},
		{`"class":"BE","type":"MPI","k":16,"base_runtime":10,"slowdown":1`, ""},
		{`"class":"BE","type":"Elastic","k":4,"min_k":5,"base_runtime":10,"slowdown":1`, "min_k"},
		{`"class":"BE","type":"Elastic","k":4,"min_k":-1,"base_runtime":10,"slowdown":1`, "min_k"},
		{`"class":"BE","type":"Elastic","k":4,"min_k":4,"base_runtime":10,"slowdown":1`, ""},
		{`"class":"SLO","type":"DataLocal","k":2,"base_runtime":10,"slowdown":1,"deadline":40,"data_nodes":[3,16]`, "data_nodes"},
		{`"class":"SLO","type":"DataLocal","k":2,"base_runtime":10,"slowdown":1,"deadline":40,"data_nodes":[-1,3]`, "data_nodes"},
		{`"class":"SLO","type":"DataLocal","k":2,"base_runtime":10,"slowdown":1,"deadline":40,"data_nodes":[0,15]`, ""},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":10,"slowdown":1,"est_err":-1`, "est_err"},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":10,"slowdown":1,"est_err":-0.99`, ""},
		{`"class":"SLO","type":"GPU","k":1,"base_runtime":10,"slowdown":1,"submit":5,"deadline":5`, "deadline"},
		{`"class":"SLO","type":"GPU","k":1,"base_runtime":10,"slowdown":1`, "deadline"},
		{`"class":"SLO","type":"GPU","k":1,"base_runtime":10,"slowdown":1,"submit":5,"deadline":6`, ""},
		// A job that can run off its preferred nodes runs at least as long
		// there; an Unconstrained job has no such nodes and may omit it.
		{`"class":"BE","type":"GPU","k":1,"base_runtime":10`, "slowdown"},
		{`"class":"BE","type":"MPI","k":1,"base_runtime":10,"slowdown":0.99`, "slowdown"},
		{`"class":"BE","type":"Unconstrained","k":1,"base_runtime":10`, ""},
		// The believed runtime, base × slowdown × (1 + est_err), stays
		// within a year (31 536 000 s), far inside int64.
		{`"class":"BE","type":"Unconstrained","k":1,"base_runtime":31536001`, "base_runtime"},
		{`"class":"BE","type":"Unconstrained","k":1,"base_runtime":9223372036854775807`, "base_runtime"},
		{`"class":"BE","type":"Unconstrained","k":1,"base_runtime":31536000`, ""},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":1000000,"slowdown":32`, "slowdown"},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":1000000,"slowdown":1e300`, "slowdown"},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":1000000,"slowdown":31.5`, ""},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":1000000,"slowdown":16,"est_err":1`, "est_err"},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":1000000,"slowdown":1,"est_err":1e300`, "est_err"},
		{`"class":"BE","type":"GPU","k":1,"base_runtime":1000000,"slowdown":15,"est_err":1`, ""},
	} {
		job := fmt.Sprintf(`[{"id":%d,%s}]`, i+1, tc.job)
		resp := postSubmit(t, ts.URL, []byte(job))
		body, _ := io.ReadAll(resp.Body)
		switch {
		case tc.field == "" && resp.StatusCode != http.StatusAccepted:
			t.Errorf("%s: %d %s, want 202", job, resp.StatusCode, body)
		case tc.field != "" && (resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), " "+tc.field+"=") &&
			!strings.Contains(string(body), " "+tc.field+" ")):
			t.Errorf("%s: %d %s, want 400 naming %s", job, resp.StatusCode, body, tc.field)
		}
	}
}

func TestJobMsgRoundTrip(t *testing.T) {
	j := &workload.Job{
		ID: 7, Class: workload.SLO, Type: workload.MPI, Submit: 100, K: 8,
		MinK: 2, BaseRuntime: 60, Slowdown: 1.5, Deadline: 500, EstErr: -0.2, Reserved: true,
		DataNodes: []int{1, 2, 3},
	}
	msg := FromJob(j)
	back, err := msg.ToJob(16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, j) {
		t.Errorf("round trip: %+v vs %+v", back, j)
	}
}

// TestTenantCannotBuyValue: a tenant's wire fields cannot price its job above
// a reserved SLO job of another tenant. On 8 nodes the SLO job (k 6, runtime 8,
// deadline 8) must start now or never, and the BE job (k 4) cannot run beside
// it; the BE job's tenant tries a huge priority and a submit time far in the
// future, which would hold its decaying value up. The SLO job launches either way.
func TestTenantCannotBuyValue(t *testing.T) {
	for _, tc := range []struct{ name, extra string }{
		{"plain", ``},
		{"priority", `,"priority":1e9`},
		{"submit", fmt.Sprintf(`,"submit":%d`, int64(math.MaxInt64/2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Racked(8, 2, 0)
			ts := httptest.NewServer(NewServer(core.New(c, core.Config{PlanAhead: 48}), c.N()).Handler())
			defer ts.Close()
			for _, job := range []string{
				`{"id":1,"tenant":"proxy","class":"SLO","type":"Unconstrained","k":6,"base_runtime":8,"slowdown":1,"deadline":8,"reserved":true}`,
				`{"id":2,"tenant":"a","class":"BE","type":"Unconstrained","k":4,"base_runtime":8,"slowdown":1` + tc.extra + `}`,
			} {
				if resp := postSubmit(t, ts.URL, []byte("["+job+"]")); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %s: status = %d", job, resp.StatusCode)
				}
			}
			body, _ := json.Marshal(CycleRequest{Now: 0, Free: []int{0, 1, 2, 3, 4, 5, 6, 7}})
			resp, err := http.Post(ts.URL+"/v1/cycle", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var cr CycleResponse
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				t.Fatal(err)
			}
			var launched []int
			for _, d := range cr.Decisions {
				launched = append(launched, d.JobID)
			}
			if !slices.Equal(launched, []int{1}) {
				t.Errorf("launched %v, want the reserved SLO job [1] alone", launched)
			}
		})
	}
}
