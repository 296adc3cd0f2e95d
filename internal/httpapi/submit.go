package httpapi

// POST /v1/submit — the batched, multi-tenant submission endpoint and the
// daemon's only way to put a job into the scheduler. The body is a JSON array
// of job objects. Admission is atomic — every job is validated and the whole
// batch is enqueued, or the batch is rejected and the ingress queue is
// untouched. One invalid job fails the batch with 400 and a per-item error
// body.
//
// Backpressure is explicit: when the ingress queue (or the tenant's quota or
// rate) cannot take the batch, the handler answers 429 with a Retry-After
// header. The daemon never buffers beyond the configured queue bound.
//
// The handler is the daemon's hot path and is written allocation-consciously:
// request bodies decode into pooled scratch buffers, responses are built by
// appending to a pooled byte slice (no encoding/json on the success path),
// and tenant accounting reuses one long-lived map (no per-request map churn).
// The only per-job allocations are the workload.Job values themselves, which
// the scheduler retains.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// maxSubmitBody bounds one request body (a /v1/submit batch, a /v1/cycle or
// a /v1/completions message), read whole.
const maxSubmitBody = 16 << 20

// submitScratch is the pooled per-request working set of the submit path.
type submitScratch struct {
	body []byte
	msgs []JobMsg
	jobs []*workload.Job
	resp []byte
}

var submitPool = sync.Pool{New: func() interface{} { return new(submitScratch) }}

func getScratch() *submitScratch {
	sc := submitPool.Get().(*submitScratch)
	sc.msgs = sc.msgs[:0]
	sc.jobs = sc.jobs[:0]
	sc.resp = sc.resp[:0]
	return sc
}

func putScratch(sc *submitScratch) {
	if cap(sc.body) > maxSubmitBody/4 || cap(sc.resp) > maxSubmitBody/4 {
		return // drop oversized outliers instead of pinning them in the pool
	}
	// json.Unmarshal decodes a batch into the elements already in the slice,
	// so a field an item omits would keep what the last request put there.
	clear(sc.msgs)
	submitPool.Put(sc)
}

// readBody reads r into buf (reused across requests), enforcing the body
// limit.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxSubmitBody { // first: the read that crosses the limit may also be the last
			return buf, fmt.Errorf("httpapi: request body exceeds %d bytes", maxSubmitBody)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBody unmarshals a request's JSON body into v through the pooled
// scratch: a json.Decoder per request would grow a buffer of its own to hold
// the whole value. A Decoder stopped at the end of the first value, so
// whatever follows one is still ignored.
func decodeBody(r *http.Request, v interface{}) error {
	sc := getScratch()
	defer putScratch(sc)
	var err error
	if sc.body, err = readBody(sc.body, r.Body); err != nil {
		return err
	}
	err = json.Unmarshal(sc.body, v)
	var syn *json.SyntaxError
	if errors.As(err, &syn) && syn.Offset > 0 && json.Valid(sc.body[:syn.Offset-1]) {
		return json.Unmarshal(sc.body[:syn.Offset-1], v) // the error is at the first byte past a whole value
	}
	return err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.submitBatch(w, r)
	s.adm.observeLatency(time.Since(t0))
}

// submitBatch admits one JSON-array batch, or refuses all of it.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	sp := s.tracer.Begin("admit", "submit.batch")

	var err error
	sc.body, err = readBody(sc.body, r.Body)
	if err != nil {
		sp.End(trace.S("error", err.Error()))
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := json.Unmarshal(sc.body, &sc.msgs); err != nil {
		sp.End(trace.S("error", err.Error()))
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: batch must be a JSON array of jobs: %v", err))
		return
	}
	if len(sc.msgs) == 0 {
		sp.End(trace.S("error", "empty batch"))
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: empty batch"))
		return
	}

	// Validate every item before anything is enqueued (atomic semantics).
	// badAt remembers the first conversion failure; the per-item error body
	// is built from a second pass so the common all-valid path does no
	// error-string work at all.
	badAt, badErr := -1, error(nil)
	for i := range sc.msgs {
		j, err := sc.msgs[i].ToJob(s.universe)
		if err != nil {
			badAt, badErr = i, err
			break
		}
		if j.Tenant == "" {
			j.Tenant = DefaultTenant
		}
		sc.jobs = append(sc.jobs, j)
	}
	if badAt >= 0 {
		sp.End(trace.S("error", badErr.Error()), trace.I("jobs", int64(len(sc.msgs))))
		s.writeBatchErrors(w, sc, badAt, badErr)
		return
	}
	out := s.adm.tryEnqueue(sc.jobs)
	switch out.reason {
	case rejectNone:
		s.logAdmission(sc.jobs, "accepted", http.StatusAccepted)
		sp.End(trace.I("jobs", int64(len(sc.jobs))), trace.S("outcome", "accepted"))
		sc.resp = append(sc.resp, `{"accepted":`...)
		sc.resp = strconv.AppendInt(sc.resp, int64(len(sc.jobs)), 10)
		sc.resp = append(sc.resp, '}', '\n')
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write(sc.resp)
	case rejectInvalid:
		err := fmt.Errorf("httpapi: duplicate job %d (in batch or already queued)", sc.jobs[out.badIndex].ID)
		sp.End(trace.S("error", err.Error()), trace.I("jobs", int64(len(sc.jobs))))
		s.writeBatchErrors(w, sc, out.badIndex, err)
	default: // rejectFull, rejectQuota, rejectRate
		s.logAdmission(sc.jobs, out.reason.String(), http.StatusTooManyRequests)
		sp.End(trace.I("jobs", int64(len(sc.jobs))), trace.S("outcome", out.reason.String()))
		s.writeBackpressure(w, sc, out)
	}
}

// writeBackpressure emits the 429 contract: Retry-After header plus a small
// JSON body naming the reason (queue_full | tenant_quota | tenant_rate) and
// echoing the advisory backoff. A rate rejection carries a Retry-After sized
// to the token-bucket deficit instead of the static default.
func (s *Server) writeBackpressure(w http.ResponseWriter, sc *submitScratch, out enqueueOutcome) {
	retry := s.adm.advisoryRetry(out)
	sc.resp = append(sc.resp, `{"error":"`...)
	sc.resp = append(sc.resp, out.reason.String()...)
	if out.reason == rejectQuota || out.reason == rejectRate {
		sc.resp = append(sc.resp, `","tenant":"`...)
		sc.resp = append(sc.resp, out.tenant...)
	}
	sc.resp = append(sc.resp, `","retry_after_seconds":`...)
	sc.resp = strconv.AppendInt(sc.resp, int64(retry), 10)
	sc.resp = append(sc.resp, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.WriteHeader(http.StatusTooManyRequests)
	w.Write(sc.resp)
}

// writeBatchErrors emits the atomic-reject 400 body: one entry per batch
// item, with the first failing item carrying its error. Items after the
// first failure are reported unvalidated (the batch is rejected as a unit
// either way, and stopping at the first error keeps the reject path cheap
// under malformed floods).
func (s *Server) writeBatchErrors(w http.ResponseWriter, sc *submitScratch, badAt int, badErr error) {
	type itemErr struct {
		ID     int    `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error,omitempty"`
	}
	items := make([]itemErr, len(sc.msgs))
	for i := range sc.msgs {
		items[i] = itemErr{ID: sc.msgs[i].ID, Status: "ok"}
		switch {
		case i == badAt:
			items[i].Status = "error"
			items[i].Error = badErr.Error()
		case i > badAt:
			items[i].Status = "unvalidated"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(struct {
		Error string    `json:"error"`
		Items []itemErr `json:"items"`
	}{Error: "invalid batch (rejected atomically; no job was enqueued)", Items: items})
}
