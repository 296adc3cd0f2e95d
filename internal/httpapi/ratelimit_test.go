package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// rateDoor builds a front door with a swappable clock: the returned advance
// function moves the token-bucket clock forward without sleeping.
func rateDoor(t *testing.T, cfg AdmissionConfig) (*fakeSched, *httptest.Server, func(d time.Duration)) {
	t.Helper()
	f := newFakeSched()
	srv := NewServer(f, 16).SetAdmission(cfg)
	clock := time.Unix(1000, 0)
	srv.adm.now = func() time.Time { return clock }
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return f, ts, func(d time.Duration) { clock = clock.Add(d) }
}

// TestTenantRateLimitBurstAndRefill pins the token-bucket contract: a fresh
// bucket holds its full burst, an exhausted bucket answers 429 with reason
// tenant_rate naming the tenant, and elapsed time refills capacity at the
// configured rate up to the burst cap.
func TestTenantRateLimitBurstAndRefill(t *testing.T) {
	f, ts, advance := rateDoor(t, AdmissionConfig{
		Tenants: []TenantConfig{{Name: "a", Quota: -1, Rate: 2, RateBurst: 4}},
	})

	// The fresh bucket covers exactly the burst.
	if resp := postSubmit(t, ts.URL, batchBody("a", 0, 4)); resp.StatusCode != 202 {
		t.Fatalf("burst batch = %d, want 202", resp.StatusCode)
	}
	// One more job at the same instant exceeds the (now empty) bucket.
	resp := postSubmit(t, ts.URL, batchBody("a", 10, 1))
	if resp.StatusCode != 429 {
		t.Fatalf("post-burst batch = %d, want 429", resp.StatusCode)
	}
	var body struct {
		Error      string `json:"error"`
		Tenant     string `json:"tenant"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "tenant_rate" || body.Tenant != "a" {
		t.Errorf("429 body = %+v, want tenant_rate for tenant a", body)
	}
	// Deficit 1 token at 2 tokens/s refills within a second.
	if body.RetryAfter != 1 {
		t.Errorf("retry_after_seconds = %d, want 1 (ceil(1 token / 2 per s))", body.RetryAfter)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After header = %q, want \"1\"", got)
	}

	// 2 seconds refill 4 tokens; the cap keeps idling from exceeding burst.
	advance(2 * time.Second)
	if resp := postSubmit(t, ts.URL, batchBody("a", 20, 4)); resp.StatusCode != 202 {
		t.Fatalf("refilled batch = %d, want 202", resp.StatusCode)
	}
	advance(time.Hour)
	if resp := postSubmit(t, ts.URL, batchBody("a", 30, 5)); resp.StatusCode != 429 {
		t.Fatalf("over-burst batch after idle = %d, want 429 (cap holds)", resp.StatusCode)
	}
	if len(f.order) != 0 {
		t.Fatalf("jobs reached the scheduler before any cycle: %d", len(f.order))
	}
}

// TestTenantRateLimitBatchAtomicity: a batch larger than the available
// tokens is rejected whole — it spends nothing, so a subsequent batch that
// fits the untouched balance is admitted. A 400 (duplicate) must also leave
// the bucket untouched: validation failures never burn budget.
func TestTenantRateLimitBatchAtomicity(t *testing.T) {
	_, ts, _ := rateDoor(t, AdmissionConfig{
		Tenants: []TenantConfig{{Name: "a", Quota: -1, Rate: 1, RateBurst: 2}},
	})

	// 3 > 2 tokens: rejected whole.
	if resp := postSubmit(t, ts.URL, batchBody("a", 0, 3)); resp.StatusCode != 429 {
		t.Fatalf("oversized batch = %d, want 429", resp.StatusCode)
	}
	// A duplicate-ID batch fails validation with 400 after the rate check;
	// it must not spend the 2 tokens it asked for.
	dup := []byte(`[{"id":7,"tenant":"a","class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1},` +
		`{"id":7,"tenant":"a","class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1}]`)
	if resp := postSubmit(t, ts.URL, dup); resp.StatusCode != 400 {
		t.Fatalf("duplicate batch = %d, want 400", resp.StatusCode)
	}
	// Both rejections left the balance intact: the full burst still fits.
	if resp := postSubmit(t, ts.URL, batchBody("a", 10, 2)); resp.StatusCode != 202 {
		t.Fatalf("fitting batch = %d, want 202 (earlier rejections must not spend tokens)", resp.StatusCode)
	}
}

// TestTenantRateLimitScopedPerTenant: one tenant exhausting its bucket does
// not throttle an unlimited tenant, and the long Retry-After of a slow
// bucket is sized to its own deficit.
func TestTenantRateLimitScopedPerTenant(t *testing.T) {
	_, ts, _ := rateDoor(t, AdmissionConfig{
		Tenants: []TenantConfig{{Name: "slow", Quota: -1, Rate: 0.5, RateBurst: 1}},
	})
	if resp := postSubmit(t, ts.URL, batchBody("slow", 0, 1)); resp.StatusCode != 202 {
		t.Fatalf("first slow job = %d, want 202", resp.StatusCode)
	}
	resp := postSubmit(t, ts.URL, batchBody("slow", 1, 1))
	if resp.StatusCode != 429 {
		t.Fatalf("second slow job = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (1 token at 0.5/s)", got)
	}
	// An unlisted tenant has no bucket and sails through.
	for i := 0; i < 3; i++ {
		if resp := postSubmit(t, ts.URL, batchBody("free", 100+10*i, 5)); resp.StatusCode != 202 {
			t.Fatalf("unlimited tenant batch %d = %d, want 202", i, resp.StatusCode)
		}
	}
}

// TestTenantRateLimitObservability: rate rejections surface in /v1/status
// (rate, burst, rejected_rate) and as the per-tenant
// tetrisched_admission_rejected_rate_total counter in /metrics.
func TestTenantRateLimitObservability(t *testing.T) {
	_, ts, _ := rateDoor(t, AdmissionConfig{
		Tenants: []TenantConfig{{Name: "a", Quota: -1, Rate: 1, RateBurst: 1}},
	})
	postSubmit(t, ts.URL, batchBody("a", 0, 1)) // spends the bucket
	for i := 0; i < 3; i++ {
		if resp := postSubmit(t, ts.URL, batchBody("a", 10+i, 1)); resp.StatusCode != 429 {
			t.Fatalf("exhausted batch = %d, want 429", resp.StatusCode)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Admission *AdmissionStatusMsg `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Admission == nil {
		t.Fatal("status has no admission block")
	}
	var found bool
	for _, tn := range status.Admission.Tenants {
		if tn.Name != "a" {
			continue
		}
		found = true
		if tn.Rate != 1 || tn.RateBurst != 1 {
			t.Errorf("status rate/burst = %v/%v, want 1/1", tn.Rate, tn.RateBurst)
		}
		if tn.RejectedRate != 3 {
			t.Errorf("status rejected_rate = %d, want 3", tn.RejectedRate)
		}
	}
	if !found {
		t.Fatal("tenant a missing from admission status")
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(buf), `tetrisched_admission_rejected_rate_total{tenant="a"} 3`) {
		t.Errorf("metrics missing rejected-rate counter for tenant a:\n%s", buf)
	}
}

// TestRetryAfterFloorAllPaths pins the Retry-After floor: every 429 path —
// queue_full, tenant_quota and tenant_rate — must advise at least 1 second,
// even when the rate deficit rounds to zero. Retry-After: 0 invites an
// immediate synchronized retry stampede, the opposite of backpressure.
func TestRetryAfterFloorAllPaths(t *testing.T) {
	_, ts, _ := rateDoor(t, AdmissionConfig{
		MaxQueue: 3,
		Tenants: []TenantConfig{
			{Name: "q", Quota: 1},
			// 1000 tokens/s: a 1-token deficit refills in 1ms; the advisory
			// must still round up to a whole second, never down to 0.
			{Name: "r", Quota: -1, Rate: 1000, RateBurst: 1},
		},
	})
	assert429Floor := func(label string, status int, header string, retryAfter int) {
		t.Helper()
		if status != 429 {
			t.Fatalf("%s: status = %d, want 429", label, status)
		}
		if header == "" || header == "0" {
			t.Errorf("%s: Retry-After header = %q, want ≥ 1", label, header)
		}
		if retryAfter < 1 {
			t.Errorf("%s: retry_after_seconds = %d, want ≥ 1", label, retryAfter)
		}
	}
	decode := func(resp *http.Response) (string, int) {
		t.Helper()
		defer resp.Body.Close()
		var body struct {
			Error      string `json:"error"`
			RetryAfter int    `json:"retry_after_seconds"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Error, body.RetryAfter
	}

	// tenant_rate: burst of 1 spent, deficit refills in 1ms.
	if resp := postSubmit(t, ts.URL, batchBody("r", 0, 1)); resp.StatusCode != 202 {
		t.Fatalf("burst spend = %d, want 202", resp.StatusCode)
	}
	resp := postSubmit(t, ts.URL, batchBody("r", 1, 1))
	reason, retry := decode(resp)
	assert429Floor("rate", resp.StatusCode, resp.Header.Get("Retry-After"), retry)
	if reason != "tenant_rate" {
		t.Errorf("rate rejection reason = %q", reason)
	}

	// tenant_quota: quota 1 with one job queued.
	if resp := postSubmit(t, ts.URL, batchBody("q", 10, 1)); resp.StatusCode != 202 {
		t.Fatalf("quota fill = %d, want 202", resp.StatusCode)
	}
	resp = postSubmit(t, ts.URL, batchBody("q", 11, 1))
	reason, retry = decode(resp)
	assert429Floor("quota", resp.StatusCode, resp.Header.Get("Retry-After"), retry)
	if reason != "tenant_quota" {
		t.Errorf("quota rejection reason = %q", reason)
	}

	// queue_full: 2 of 3 slots hold the jobs admitted above; one more fills
	// the queue and the next submission overflows.
	resp = postSubmit(t, ts.URL, batchBody("other", 20, 1))
	if resp.StatusCode != 202 {
		t.Fatalf("fill to capacity = %d, want 202", resp.StatusCode)
	}
	resp = postSubmit(t, ts.URL, batchBody("other", 30, 1))
	reason, retry = decode(resp)
	assert429Floor("full", resp.StatusCode, resp.Header.Get("Retry-After"), retry)
	if reason != "queue_full" {
		t.Errorf("full rejection reason = %q", reason)
	}
}
