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
// policy-free). The wire carries no reservation: the daemon's Rayon plan
// decides each SLO job's at drain, as sim.Run's does on arrival. In the GR SLO
// row Rayon rejects some jobs, so a daemon that reserved every SLO job would
// schedule differently.
func TestRemoteMatchesLocal(t *testing.T) {
	c := cluster.RC80(true)
	for _, tc := range []struct {
		name     string
		mix      workload.Mix
		seed     int64
		rejected int // SLO jobs Rayon rejects
	}{
		{"GS HET 15", workload.GSHET(15), 21, 0},
		{"GR SLO 80", workload.GRSLO(80), 5, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() []*workload.Job {
				jobs, err := workload.Generate(tc.mix, c, tc.seed)
				if err != nil {
					t.Fatal(err)
				}
				return jobs
			}
			local, err := sim.Run(sim.Config{Cluster: c, Jobs: mk(), Scheduler: core.New(c, core.Config{PlanAhead: 48})})
			if err != nil {
				t.Fatal(err)
			}
			rejected := 0
			for _, st := range local.Stats {
				if st.Job.Class == workload.SLO && !st.Job.Reserved {
					rejected++
				}
			}
			if rejected != tc.rejected {
				t.Fatalf("Rayon rejected %d SLO jobs, want %d", rejected, tc.rejected)
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
		})
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
		MinK: 2, BaseRuntime: 60, Slowdown: 1.5, Deadline: 500, EstErr: -0.2,
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
	// A reservation is the daemon's to decide (handleCycle), not the wire's.
	j.Reserved = true
	if msg := FromJob(j); !reflect.DeepEqual(msg, FromJob(back)) {
		t.Errorf("a reserved job's wire form %+v differs from an unreserved one's", msg)
	}
}

// TestTenantCannotBuyValue: a tenant's wire fields cannot price its job above
// an SLO job of another tenant that the daemon's Rayon plan reserves. On 8
// nodes, after an empty cycle at 996 (or none), the SLO job (k 6, runtime 8,
// deadline 1008) must start at 1000 or never, and a job of k 4 cannot run
// beside it.
// The other tenant tries a BE job with a huge priority, with a submit time far
// in the future, which would hold its decaying value up, and with a
// reservation of its own; then an SLO job that Rayon must reject at 1000,
// backdated to 0, which the plan could still reserve in slices long gone, and
// backdated below 0, which would also grow the plan's calendar over the whole
// span to now. The SLO job launches either way, and the plan holds nothing
// before 1000. The proxy tenant's name sorts first, so the drain admits its
// job to the plan first.
func TestTenantCannotBuyValue(t *testing.T) {
	be := `"class":"BE","type":"Unconstrained","k":4,"base_runtime":8,"slowdown":1`
	slo := `"class":"SLO","type":"Unconstrained","k":4,"base_runtime":8,"slowdown":1,"deadline":1008`
	for _, tc := range []struct {
		name, job string
		status    int  // the answer to its submit
		first     bool // no cycle before the one at 1000
	}{
		{"plain", be, http.StatusAccepted, false},
		{"priority", be + `,"priority":1e9`, http.StatusAccepted, false},
		{"submit", be + fmt.Sprintf(`,"submit":%d`, int64(math.MaxInt64/2)), http.StatusAccepted, false},
		{"reserved", be + `,"reserved":true`, http.StatusAccepted, false},
		{"backdated", slo + `,"submit":0`, http.StatusAccepted, false},
		{"backdated first", slo + `,"submit":0`, http.StatusAccepted, true},
		{"negative", slo + `,"submit":-40000000000`, http.StatusBadRequest, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Racked(8, 2, 0)
			daemon := NewServer(core.New(c, core.Config{PlanAhead: 48}), c.N())
			if !tc.first {
				cycle(t, daemon, 996, nil)
			}
			for _, job := range []struct {
				body   string
				status int
			}{
				{`{"id":1,"tenant":"proxy","class":"SLO","type":"Unconstrained","k":6,"base_runtime":8,"slowdown":1,"submit":1000,"deadline":1008}`, http.StatusAccepted},
				{`{"id":2,"tenant":"tenant",` + tc.job + `}`, tc.status},
			} {
				if w := serve(daemon, "/v1/submit", json.RawMessage("["+job.body+"]")); w.Code != job.status {
					t.Fatalf("submit %s: %d %s, want %d", job.body, w.Code, w.Body, job.status)
				}
			}
			var launched []int
			for _, d := range cycle(t, daemon, 1000, []int{0, 1, 2, 3, 4, 5, 6, 7}).Decisions {
				launched = append(launched, d.JobID)
			}
			if !slices.Equal(launched, []int{1}) {
				t.Errorf("launched %v, want the reserved SLO job [1] alone", launched)
			}
			if r := daemon.plan.Lookup(2); r != nil {
				t.Errorf("the other tenant's job holds the reservation %+v", *r)
			}
			if n := daemon.plan.MaxReserved(0, 1000); n != 0 {
				t.Errorf("the plan reserves %d nodes before 1000", n)
			}
		})
	}
}

// TestDroppedReservationIsReleased: on 8 nodes, none of them offered, an SLO
// job (k 8, runtime 16, deadline 20) reserved at [0, 16) cannot start in
// time and is dropped within a few cycles. Its remaining slices go back to
// the plan, which then reserves them for a later job (k 8, runtime 4) that
// must end by 16.
func TestDroppedReservationIsReleased(t *testing.T) {
	c := cluster.Racked(8, 2, 0)
	daemon := NewServer(core.New(c, core.Config{PlanAhead: 48}), c.N())
	submit := func(body string) {
		if w := serve(daemon, "/v1/submit", json.RawMessage(body)); w.Code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", body, w.Code, w.Body)
		}
	}
	submit(`[{"id":1,"class":"SLO","type":"Unconstrained","k":8,"base_runtime":16,"slowdown":1,"deadline":20}]`)
	now := int64(0)
	for ; ; now += 4 {
		cr := cycle(t, daemon, now, nil)
		if now == 0 && daemon.plan.Lookup(1) == nil {
			t.Fatal("the first job was not reserved")
		}
		if slices.Equal(cr.Dropped, []int{1}) {
			break
		}
		if now >= 8 {
			t.Fatalf("the first job is not dropped by %d", now)
		}
	}
	if r := daemon.plan.Lookup(1); r != nil {
		t.Fatalf("the dropped job still holds %+v", *r)
	}
	submit(fmt.Sprintf(`[{"id":2,"class":"SLO","type":"Unconstrained","k":8,"base_runtime":4,"slowdown":1,"submit":%d,"deadline":16}]`, now+4))
	cycle(t, daemon, now+4, nil)
	if daemon.plan.Lookup(2) == nil {
		t.Error("the plan rejected the later job: the dropped job's slices were not released")
	}
}

// cycle runs one scheduling cycle at now with the free nodes given.
func cycle(t *testing.T, s *Server, now int64, free []int) CycleResponse {
	t.Helper()
	var cr CycleResponse
	if w := serve(s, "/v1/cycle", CycleRequest{Now: now, Free: free}); w.Code != http.StatusOK {
		t.Fatalf("cycle at %d: %d %s", now, w.Code, w.Body)
	} else if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// serve answers one POST of body, encoded as JSON, on the goroutine of the
// caller, which may then read the server's state.
func serve(s *Server, path string, body any) *httptest.ResponseRecorder {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return w
}
