package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
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
