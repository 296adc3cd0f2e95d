package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
)

// FuzzSubmitDecoders sends an arbitrary body to POST /v1/submit through
// Handler() to a front door with a small queue, a quota-capped, a locked-out
// and a rate-limited tenant. Whatever the body, the request may not panic or
// answer 5xx; a 400 or 429 leaves the queue depth as it was; and the jobs a
// 202 calls accepted are exactly the jobs the queue gained. The corpus keeps
// its newline-delimited bodies: the endpoint reads every body as a JSON
// batch, so to it they are malformed batches.
func FuzzSubmitDecoders(f *testing.F) {
	job := `{"id":%d,"tenant":%q,"class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1}`
	for _, body := range []string{
		string(batchBody("a", 1, 3)),
		string(batchBody("capped", 1, 3)),
		string(batchBody("a", 1, 9)),
		`[` + fmt.Sprintf(job, 1, "a") + `,` + fmt.Sprintf(job, 1, "a") + `]`,
		fmt.Sprintf(job, 1, "a") + "\n" + fmt.Sprintf(job, 2, "slow") + "\n" + fmt.Sprintf(job, 3, "slow") + "\n" + fmt.Sprintf(job, 4, "slow") + "\n",
		fmt.Sprintf(job, 1, "locked") + "\nnot json\n\n" + fmt.Sprintf(job, 2, "") + "\n",
		`[{"id":1,"class":"SLO","type":"DataLocal","k":2,"base_runtime":5,"slowdown":2,"data_nodes":[0,99],"deadline":40}] trailing`,
		`[{"id":1,"class":"BE","type":"GPU","k":-1,"base_runtime":10}]`,
		`[]`,
		`{"id":7}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := NewServer(newFakeSched(), 16).SetAdmission(AdmissionConfig{MaxQueue: 8, Tenants: []TenantConfig{
			{Name: "capped", Quota: 2},
			{Name: "locked", Quota: 0},
			{Name: "slow", Quota: -1, Rate: 1, RateBurst: 2},
		}})
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		gained := srv.adm.status().Queued // the front door is new: its queue started empty
		switch rec.Code {
		case http.StatusAccepted:
			var resp struct{ Accepted int }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted != gained || gained == 0 {
				t.Fatalf("batch %q: 202 %s (%v), yet the queue gained %d", body, rec.Body, err, gained)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
			if gained != 0 {
				t.Fatalf("batch %q: %d, yet the queue gained %d", body, rec.Code, gained)
			}
		default:
			t.Fatalf("batch %q: unexpected status %d %s", body, rec.Code, rec.Body)
		}
	})
}

// FuzzSubmitCycle posts one fixed SLO job, two nodes that must start now, and
// then an arbitrary body as tenant a's batch to POST /v1/submit on a daemon
// over a real core.Scheduler (12 nodes in three racks, one of them GPU; a
// 20 ms work budget per solve), then runs one POST /v1/cycle on which nodes 5
// and 10 are busy though the scheduler believes them idle. The submit must
// answer 202 or 4xx and the cycle 200, nothing may panic, and every decision
// must name a job the submit admitted, on free nodes no other decision took,
// as many as the job's widths allow: k, or for an elastic job anything in
// [min_k, k]. The fixed job's tenant has the least name, so the drain admits
// it to Rayon first, and it must launch in that cycle. The one exception:
// Rayon plans the 12 nodes and cannot see the two busy ones, so when its
// reservations for now ask for more than the 10 nodes the cycle offers, the
// scheduler may give them to other reserved jobs.
func FuzzSubmitCycle(f *testing.F) {
	for _, body := range []string{
		`[{"id":1,"tenant":"a","class":"BE","type":"Unconstrained","k":3,"base_runtime":8}]`,
		`[{"id":1,"tenant":"a","class":"SLO","type":"GPU","k":4,"base_runtime":8,"slowdown":2,"deadline":40,"reserved":true},` +
			`{"id":2,"tenant":"a","class":"BE","type":"MPI","k":4,"base_runtime":12,"slowdown":1.5}]`,
		`[{"id":1,"tenant":"a","class":"BE","type":"Elastic","k":6,"min_k":2,"base_runtime":20,"slowdown":1},` +
			`{"id":2,"tenant":"a","class":"SLO","type":"DataLocal","k":2,"base_runtime":4,"slowdown":3,"deadline":12,"data_nodes":[4,5,6]},` +
			`{"id":3,"tenant":"a","class":"SLO","type":"Unconstrained","k":12,"base_runtime":4,"est_err":-0.5,"deadline":4}]`,
		`[{"id":1,"tenant":"a","class":"BE","type":"Elastic","k":8,"min_k":2,"base_runtime":20,"slowdown":1}]`,
		`[{"id":1,"tenant":"a","class":"BE","type":"Elastic","k":12,"min_k":0,"base_runtime":31536000,"slowdown":1}]`,
		`[{"id":1,"tenant":"a","class":"BE","type":"GPU","k":13,"base_runtime":8,"slowdown":1}]`,
		`[{"id":1,"tenant":"a","class":"BE","type":"MPI","k":2,"base_runtime":8,"slowdown":0.5}]`,
		`[{"id":1,"tenant":"a","class":"SLO","type":"Unconstrained","k":10,"base_runtime":8,"deadline":8}]`,
		`[{"id":1,"tenant":"a","class":"SLO","type":"Unconstrained","k":5,"base_runtime":8,"deadline":8},{"id":2,"tenant":"a","class":"SLO","type":"Unconstrained","k":5,"base_runtime":8,"deadline":8}]`,
		`[{"id":1,"tenant":"a","class":"SLO","type":"GPU","k":4,"base_runtime":8,"slowdown":4,"deadline":8},{"id":2,"tenant":"a","class":"SLO","type":"MPI","k":4,"base_runtime":8,"slowdown":4,"deadline":8},{"id":3,"tenant":"a","class":"SLO","type":"Unconstrained","k":2,"base_runtime":8,"deadline":8}]`,
	} {
		f.Add([]byte(body))
	}
	free := []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 11}
	const fixedID = 1 << 20
	fixed := JobMsg{ID: fixedID, Tenant: "\x00", Class: "SLO", Type: "Unconstrained", K: 2, BaseRuntime: 8, Deadline: 8}
	fixedBody, _ := json.Marshal([]JobMsg{fixed})
	f.Fuzz(func(t *testing.T, body []byte) {
		c := cluster.Racked(12, 3, 1)
		srv := NewServer(core.New(c, core.Config{PlanAhead: 16, SolverTimeLimit: 20 * time.Millisecond}), c.N()).
			SetAdmission(AdmissionConfig{MaxQueue: 16, Tenants: []TenantConfig{{Name: "a", Quota: -1}}})
		h := srv.Handler()
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		if rec := post("/v1/submit", fixedBody); rec.Code != http.StatusAccepted {
			t.Fatalf("the fixed job: submit answered %d %s", rec.Code, rec.Body)
		}
		admitted := map[int]*JobMsg{fixedID: &fixed}
		switch rec := post("/v1/submit", body); {
		case rec.Code == http.StatusAccepted:
			var msgs []JobMsg
			if err := json.Unmarshal(body, &msgs); err != nil {
				t.Fatalf("batch %q: 202, yet it does not decode: %v", body, err)
			}
			for i := range msgs {
				admitted[msgs[i].ID] = &msgs[i]
			}
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("batch %q: submit answered %d %s", body, rec.Code, rec.Body)
		}
		cycle, _ := json.Marshal(CycleRequest{Now: 0, Free: free})
		rec := post("/v1/cycle", cycle)
		var cr CycleResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("batch %q: cycle answered %d %s", body, rec.Code, rec.Body)
		}
		taken := map[int]bool{}
		for _, d := range cr.Decisions {
			m := admitted[d.JobID]
			if m == nil {
				t.Fatalf("batch %q: job %d launched, which the submit did not admit", body, d.JobID)
			}
			j, err := m.ToJob(c.N())
			if err != nil {
				t.Fatalf("batch %q: job %d was admitted, yet: %v", body, d.JobID, err)
			}
			if lo, hi := j.WidthRange(); len(d.Nodes) < lo || len(d.Nodes) > hi {
				t.Fatalf("batch %q: job %d launched on %v, outside its widths [%d, %d]", body, d.JobID, d.Nodes, lo, hi)
			}
			for _, n := range d.Nodes {
				if !slices.Contains(free, n) || taken[n] {
					t.Fatalf("batch %q: job %d launched on node %d, which is busy or taken", body, d.JobID, n)
				}
				taken[n] = true
			}
		}
		if !slices.ContainsFunc(cr.Decisions, func(d DecisionMsg) bool { return d.JobID == fixedID }) && srv.plan.Reserved(0) <= len(free) {
			t.Fatalf("batch %q: the fixed job did not launch, though Rayon reserved only %d nodes now; decisions %+v",
				body, srv.plan.Reserved(0), cr.Decisions)
		}
	})
}
