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
	"strings"
	"sync"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// fakeSched is a sim.Scheduler stub that records submissions; all methods
// are invoked under the server's lock, so it needs no synchronization of
// its own.
type fakeSched struct {
	byTenant map[string]int
	order    []*workload.Job
	free     *bitset.Set // the last cycle's idle nodes
}

func newFakeSched() *fakeSched { return &fakeSched{byTenant: make(map[string]int)} }

func (f *fakeSched) Name() string { return "fake" }
func (f *fakeSched) Submit(now int64, j *workload.Job) {
	f.byTenant[j.Tenant]++
	f.order = append(f.order, j)
}
func (f *fakeSched) JobFinished(now int64, j *workload.Job) {}
func (f *fakeSched) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	f.free = free
	return sim.CycleResult{}
}

var _ sim.Scheduler = (*fakeSched)(nil)

// frontDoor builds a server with the given admission config over a stub
// scheduler.
func frontDoor(t *testing.T, cfg AdmissionConfig) (*fakeSched, *httptest.Server) {
	t.Helper()
	f := newFakeSched()
	srv := NewServer(f, 16).SetAdmission(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return f, ts
}

// batchBody builds a JSON-array body of n valid BE jobs for tenant, with
// IDs starting at id0.
func batchBody(tenant string, id0, n int) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"tenant":%q,"class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1}`,
			id0+i, tenant)
	}
	b.WriteByte(']')
	return b.Bytes()
}

func postSubmit(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func postCycle(t *testing.T, url string, now int64) {
	t.Helper()
	resp, err := http.Post(url+"/v1/cycle", "application/json",
		strings.NewReader(fmt.Sprintf(`{"now":%d,"free":[]}`, now)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cycle = %d", resp.StatusCode)
	}
}

// admitOne posts job as a one-job batch to /v1/submit and drains it into the
// scheduler with a /v1/cycle whose free list is empty: the job is then pending
// there and nothing has launched.
func admitOne(t *testing.T, url, job string) {
	t.Helper()
	if resp := postSubmit(t, url, []byte("["+job+"]")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status = %d, want 202", job, resp.StatusCode)
	}
	postCycle(t, url, 0)
}

// TestWeightedFairnessConverges is the acceptance test for the weighted-fair
// dequeue: two tenants at 10:1 weights under saturating load must see their
// admitted-job shares converge to the weight ratio within 10%, and a
// zero-quota tenant must be fully rejected with 429s while the others are
// unaffected.
func TestWeightedFairnessConverges(t *testing.T) {
	f, ts := frontDoor(t, AdmissionConfig{
		MaxQueue: 4096,
		Burst:    64,
		Tenants: []TenantConfig{
			{Name: "heavy", Weight: 10, Quota: -1},
			{Name: "light", Weight: 1, Quota: -1},
			{Name: "banned", Weight: 5, Quota: 0},
		},
	})

	id := 0
	refill := func(tenant string, n int) *http.Response {
		resp := postSubmit(t, ts.URL, batchBody(tenant, id, n))
		id += n
		return resp
	}

	bannedRejects := 0
	for round := 0; round < 40; round++ {
		// Keep both live tenants saturated; the adversarial tenant keeps
		// hammering and must change nothing for the others.
		refill("heavy", 128)
		refill("light", 128)
		if resp := refill("banned", 8); resp.StatusCode == http.StatusTooManyRequests {
			bannedRejects++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
		} else {
			t.Fatalf("zero-quota tenant submission = %d, want 429", resp.StatusCode)
		}
		postCycle(t, ts.URL, int64(round))
	}

	heavy, light := f.byTenant["heavy"], f.byTenant["light"]
	if f.byTenant["banned"] != 0 {
		t.Fatalf("zero-quota tenant had %d jobs admitted", f.byTenant["banned"])
	}
	if bannedRejects != 40 {
		t.Fatalf("banned tenant saw %d/40 rejections", bannedRejects)
	}
	if heavy+light != 40*64 {
		t.Fatalf("drained %d jobs, want %d (saturation assumption broken)", heavy+light, 40*64)
	}
	ratio := float64(heavy) / float64(light)
	if math.Abs(ratio-10) > 1 { // within 10% of the 10:1 weight ratio
		t.Fatalf("admitted share heavy:light = %d:%d (ratio %.2f), want 10:1 ±10%%", heavy, light, ratio)
	}

	// The fair interleaving must survive into the scheduler's pending order:
	// AdmitSeq is strictly monotone in drain order.
	last := int64(0)
	for _, j := range f.order {
		if j.AdmitSeq <= last {
			t.Fatalf("AdmitSeq not monotone: %d after %d", j.AdmitSeq, last)
		}
		last = j.AdmitSeq
	}
}

// TestBackpressureQueueFull: submissions beyond MaxQueue answer 429 with
// Retry-After and leave the queue untouched; drain frees capacity.
func TestBackpressureQueueFull(t *testing.T) {
	f, ts := frontDoor(t, AdmissionConfig{MaxQueue: 10, Burst: 100})

	// A batch larger than the whole queue is rejected atomically.
	if resp := postSubmit(t, ts.URL, batchBody("a", 0, 11)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch = %d, want 429", resp.StatusCode)
	}
	// Exactly at capacity is accepted.
	if resp := postSubmit(t, ts.URL, batchBody("a", 100, 10)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("at-capacity batch = %d, want 202", resp.StatusCode)
	}
	// One more job cannot fit.
	resp := postSubmit(t, ts.URL, batchBody("a", 200, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var body struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "queue_full" || body.RetryAfter < 1 {
		t.Fatalf("429 body = %+v", body)
	}
	// Drain, then capacity is back.
	postCycle(t, ts.URL, 0)
	if len(f.order) != 10 {
		t.Fatalf("drained %d jobs, want 10", len(f.order))
	}
	if resp := postSubmit(t, ts.URL, batchBody("a", 300, 10)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain batch = %d, want 202", resp.StatusCode)
	}
}

// TestTenantQuotaBound: a tenant's queued jobs cannot exceed its quota, and
// quota rejections name the tenant; other tenants are unaffected.
func TestTenantQuotaBound(t *testing.T) {
	_, ts := frontDoor(t, AdmissionConfig{
		MaxQueue: 100,
		Tenants:  []TenantConfig{{Name: "capped", Weight: 1, Quota: 5}},
	})
	if resp := postSubmit(t, ts.URL, batchBody("capped", 0, 5)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("within-quota = %d, want 202", resp.StatusCode)
	}
	resp := postSubmit(t, ts.URL, batchBody("capped", 10, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d, want 429", resp.StatusCode)
	}
	var body struct {
		Error  string `json:"error"`
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "tenant_quota" || body.Tenant != "capped" {
		t.Fatalf("quota 429 body = %+v", body)
	}
	// An unrelated tenant still has the run of the remaining queue.
	if resp := postSubmit(t, ts.URL, batchBody("other", 20, 20)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", resp.StatusCode)
	}
}

// TestRefusedTenantHasNoWayIn: a job of a locked-out tenant (quota 0) reaches
// the scheduler by no POST route and in no body form. Admission control holds
// only while the /v1/submit JSON batch is the one way in.
func TestRefusedTenantHasNoWayIn(t *testing.T) {
	c := cluster.RC80(false)
	sched := core.New(c, core.Config{PlanAhead: 48})
	srv := NewServer(sched, c.N()).SetAdmission(AdmissionConfig{
		Tenants: []TenantConfig{{Name: "locked", Weight: 1, Quota: 0}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := `{"id":5,"tenant":"locked","class":"SLO","type":"Unconstrained","k":2,"base_runtime":20,"slowdown":1,"deadline":500}`
	for _, body := range []string{"[" + job + "]", job + "\n"} {
		for _, route := range []struct{ path, ctype string }{
			{"/v1/submit", "application/json"},
			{"/v1/submit", "application/x-ndjson"},
			{"/v1/jobs", "application/json"},
		} {
			resp, err := http.Post(ts.URL+route.path, route.ctype, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 400 {
				t.Errorf("%s (%s) %q: status = %d, want a refusal", route.path, route.ctype, body, resp.StatusCode)
			}
			if route.path == "/v1/jobs" && resp.StatusCode != http.StatusNotFound {
				t.Errorf("/v1/jobs: status = %d, want 404", resp.StatusCode)
			}
		}
	}

	free := make([]int, c.N())
	for i := range free {
		free[i] = i
	}
	body, _ := json.Marshal(CycleRequest{Now: 0, Free: free})
	resp, err := http.Post(ts.URL+"/v1/cycle", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CycleResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	for _, d := range cr.Decisions {
		if d.JobID == 5 {
			t.Errorf("the locked-out tenant's job launched on nodes %v", d.Nodes)
		}
	}
	if n := sched.Pending(); n != 0 {
		t.Errorf("%d jobs pending in the scheduler, want 0", n)
	}
}

// TestBatchFieldsStartZero: the submit path decodes each batch into a pooled
// slice, and json.Unmarshal fills the elements already there. A field a job
// omits must still read as zero, not as what an earlier request left in that
// element, or a job sent with no tenant is charged to another request's tenant
// and runs with that job's deadline, data nodes and reservation.
func TestBatchFieldsStartZero(t *testing.T) {
	f, ts := frontDoor(t, AdmissionConfig{})
	for i := 0; i < 20; i++ {
		full := fmt.Sprintf(`[{"id":%d,"tenant":"a","class":"SLO","type":"DataLocal","k":2,"min_k":1,"base_runtime":10,"slowdown":2,"deadline":99,"est_err":0.5,"data_nodes":[3],"priority":2,"reserved":true}]`, 2*i)
		bare := fmt.Sprintf(`[{"id":%d,"class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1}]`, 2*i+1)
		for _, body := range []string{full, bare} {
			if resp := postSubmit(t, ts.URL, []byte(body)); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: status = %d, want 202", body, resp.StatusCode)
			}
		}
	}
	postCycle(t, ts.URL, 0)
	if len(f.order) != 40 {
		t.Fatalf("scheduler got %d jobs, want 40", len(f.order))
	}
	for _, j := range f.order {
		if j.ID%2 == 0 {
			continue
		}
		if j.Tenant != DefaultTenant || j.MinK != 0 || j.Deadline != 0 || j.EstErr != 0 ||
			j.DataNodes != nil || j.Priority != 0 || j.Reserved {
			t.Fatalf("job %d carries fields it was not sent: %+v", j.ID, *j)
		}
	}
}

// TestMalformedBatchRejectsAtomically is the malformed-batch semantics test:
// a batch with one invalid job must be rejected as a unit with a per-item
// error body, leaving both the ingress queue and the scheduler's pending
// queue untouched.
func TestMalformedBatchRejectsAtomically(t *testing.T) {
	f, ts := frontDoor(t, AdmissionConfig{})
	body := []byte(`[
		{"id":1,"class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1},
		{"id":2,"class":"NOPE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1},
		{"id":3,"class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1}
	]`)
	resp := postSubmit(t, ts.URL, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch = %d, want 400", resp.StatusCode)
	}
	var rej struct {
		Error string `json:"error"`
		Items []struct {
			ID     int    `json:"id"`
			Status string `json:"status"`
			Error  string `json:"error"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if len(rej.Items) != 3 {
		t.Fatalf("per-item body has %d items, want 3: %+v", len(rej.Items), rej)
	}
	if rej.Items[0].Status != "ok" || rej.Items[1].Status != "error" || rej.Items[2].Status != "unvalidated" {
		t.Fatalf("item statuses = %+v", rej.Items)
	}
	if !strings.Contains(rej.Items[1].Error, "unknown class") {
		t.Fatalf("item 2 error = %q", rej.Items[1].Error)
	}

	// Duplicate IDs within a batch are invalid too.
	dup := append(append([]byte(nil), batchBody("a", 7, 1)[:len(batchBody("a", 7, 1))-1]...), ',')
	dup = append(dup, batchBody("a", 7, 1)[1:]...)
	if resp := postSubmit(t, ts.URL, dup); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("in-batch duplicate = %d, want 400", resp.StatusCode)
	}

	// Nothing reached the queue or the scheduler.
	postCycle(t, ts.URL, 0)
	if len(f.order) != 0 {
		t.Fatalf("scheduler saw %d jobs from rejected batches", len(f.order))
	}
}

// TestAdmissionObservability: queue depth, per-tenant counters, and the
// admission-latency histogram appear on /metrics, and /v1/status carries the
// admission block.
func TestAdmissionObservability(t *testing.T) {
	_, ts := frontDoor(t, AdmissionConfig{
		MaxQueue: 50,
		Tenants:  []TenantConfig{{Name: "a", Weight: 2, Quota: -1}},
	})
	postSubmit(t, ts.URL, batchBody("a", 0, 3))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"tetrisched_admission_queue_depth 3",
		"tetrisched_admission_queue_capacity 50",
		`tetrisched_admission_tenant_queued{tenant="a"} 3`,
		`tetrisched_admission_enqueued_total{tenant="a"} 3`,
		`tetrisched_admission_admitted_total{tenant="a"} 0`,
		"tetrisched_admission_latency_seconds_count 1",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var st StatusResponse
	sresp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || st.Admission.Queued != 3 || len(st.Admission.Tenants) != 1 {
		t.Fatalf("status admission block = %+v", st.Admission)
	}
	if ten := st.Admission.Tenants[0]; ten.Name != "a" || ten.Weight != 2 || ten.Enqueued != 3 {
		t.Fatalf("tenant status = %+v", ten)
	}
}

// TestConcurrentClients hammers submit (batches of many jobs, of one, and of
// a duplicated pair), cycle, status, metrics and completions from concurrent
// clients. It
// exists to run under -race (tier-1 `make race`): any unsynchronized state
// in the handlers shows up here.
func TestConcurrentClients(t *testing.T) {
	_, ts := frontDoor(t, AdmissionConfig{MaxQueue: 1 << 16, Burst: 256})
	client := ts.Client()

	var wg sync.WaitGroup
	do := func(n int, f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				f(i)
			}
		}()
	}
	post := func(path, ctype string, body []byte) {
		resp, err := client.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Errorf("%s returned %d", path, resp.StatusCode)
		}
	}
	// Four batch submitters on disjoint ID ranges, plus one that collides
	// with the first on purpose (conflict path).
	for g := 0; g < 4; g++ {
		g := g
		do(50, func(i int) {
			post("/v1/submit", "application/json", batchBody(fmt.Sprintf("t%d", g), 1_000_000+g*100_000+i*16, 16))
		})
	}
	do(50, func(i int) {
		post("/v1/submit", "application/json", batchBody("t0", 1_000_000+i*16, 16))
	})
	do(30, func(i int) {
		job := fmt.Sprintf(`{"id":%d,"tenant":"s","class":"BE","type":"Unconstrained","k":1,"base_runtime":5,"slowdown":1}`, 2_000_000+i)
		post("/v1/submit", "application/json", []byte("["+job+","+job+"]"))
	})
	do(40, func(i int) {
		post("/v1/cycle", "application/json", []byte(fmt.Sprintf(`{"now":%d,"free":[]}`, i)))
	})
	do(40, func(i int) {
		post("/v1/submit", "application/json", []byte(fmt.Sprintf(
			`[{"id":%d,"class":"BE","type":"Unconstrained","k":1,"base_runtime":5,"slowdown":1}]`, 3_000_000+i)))
	})
	do(40, func(i int) {
		post("/v1/completions", "application/json", []byte(fmt.Sprintf(`{"job_id":%d,"now":%d}`, 3_000_000+i, i)))
	})
	get := func(path string) {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	do(60, func(i int) { get("/v1/status") })
	do(60, func(i int) { get("/metrics") })
	wg.Wait()
}

// TestCycleFreeListRecycled: the slice a cycle request's idle nodes are decoded
// into comes from a pool, and a cycle must see exactly the nodes its own body
// listed — nothing of a longer list decoded there before, after a null, or
// after a request that was refused half-way through.
func TestCycleFreeListRecycled(t *testing.T) {
	f, ts := frontDoor(t, AdmissionConfig{})
	for _, tc := range []struct {
		body string
		code int
		want []int
	}{
		{`{"now":0,"free":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}`, http.StatusOK, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{`{"now":4,"free":[3]}`, http.StatusOK, []int{3}},
		{`{"now":8,"free":[1,2,99]}`, http.StatusBadRequest, []int{3}},
		{`{"now":8,"free":[5,6]}`, http.StatusOK, []int{5, 6}},
		{`{"now":12,"free":null}`, http.StatusOK, nil},
		{`{"now":16}`, http.StatusOK, nil},
		{`{"now":20,"free":[7]}`, http.StatusOK, []int{7}},
	} {
		resp, err := http.Post(ts.URL+"/v1/cycle", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
		if got := f.free.Indices(); !reflect.DeepEqual(got, tc.want) && (len(got) != 0 || len(tc.want) != 0) {
			t.Errorf("%s: the scheduler saw idle nodes %v, want %v", tc.body, got, tc.want)
		}
	}
}
