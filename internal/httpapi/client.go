package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// Client is the proxy-scheduler side of the interface: it forwards job
// submissions, cycle triggers, and completion signals to a remote TetriSched
// daemon and translates its allocation decisions back. It implements
// sim.Scheduler, so the entire simulation harness can drive a scheduler that
// lives behind a real network boundary — the architectural split of §3.3.
type Client struct {
	base string
	http *http.Client
	// jobs resolves decision job IDs back to the caller's job objects.
	jobs map[int]*workload.Job
	name string
}

var _ sim.Scheduler = (*Client)(nil)

// NewClient targets a daemon at baseURL (e.g. "http://127.0.0.1:7140").
func NewClient(baseURL string) *Client {
	return &Client{
		base: baseURL,
		http: &http.Client{Timeout: 30 * time.Second},
		jobs: make(map[int]*workload.Job),
	}
}

// Name implements sim.Scheduler, fetching the daemon's scheduler name once.
func (c *Client) Name() string {
	if c.name != "" {
		return c.name
	}
	var st StatusResponse
	if err := c.get("/v1/status", &st); err != nil {
		return "remote"
	}
	c.name = st.Scheduler + "@remote"
	return c.name
}

// Submit implements sim.Scheduler. It posts a one-job batch to /v1/submit;
// the daemon queues it and the next Cycle drains it into the scheduler before
// that cycle plans, so the pending set a cycle meets is the local one. A
// refused submission (4xx or 429) is lost: it surfaces as a stalled
// simulation, since sim.Scheduler has no job-level error channel.
func (c *Client) Submit(now int64, j *workload.Job) {
	c.jobs[j.ID] = j
	msg := FromJob(j)
	msg.Submit = now
	if err := c.post("/v1/submit", []JobMsg{msg}, nil); err != nil {
		delete(c.jobs, j.ID)
	}
}

// JobFinished implements sim.Scheduler.
func (c *Client) JobFinished(now int64, j *workload.Job) {
	_ = c.post("/v1/completions", &CompletionMsg{JobID: j.ID, Now: now}, nil)
	delete(c.jobs, j.ID)
}

// Cycle implements sim.Scheduler.
func (c *Client) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	req := CycleRequest{Now: now, Free: free.Indices()}
	var resp CycleResponse
	if err := c.post("/v1/cycle", &req, &resp); err != nil {
		return sim.CycleResult{} // fail-safe: no decisions this cycle
	}
	var out sim.CycleResult
	for _, id := range resp.Preempted {
		if j, ok := c.jobs[id]; ok {
			out.Preempted = append(out.Preempted, j)
		}
	}
	for _, d := range resp.Decisions {
		if j, ok := c.jobs[d.JobID]; ok {
			out.Decisions = append(out.Decisions, sim.Decision{Job: j, Nodes: d.Nodes})
		}
	}
	for _, id := range resp.Dropped {
		if j, ok := c.jobs[id]; ok {
			out.Dropped = append(out.Dropped, j)
			delete(c.jobs, id)
		}
	}
	out.SolverLatency = time.Duration(resp.SolverMillis * float64(time.Millisecond))
	return out
}

func (c *Client) post(path string, body, out interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("httpapi: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func (c *Client) get(path string, out interface{}) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("httpapi: %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
