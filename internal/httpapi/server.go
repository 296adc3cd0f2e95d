// Package httpapi exposes a TetriSched scheduler over HTTP/JSON, playing
// the role of the Apache Thrift RPC interface between the YARN proxy
// scheduler and the TetriSched daemon in the paper's integration (§3.3).
// The interface mirrors the paper's three responsibilities: (a) adding jobs
// to the pending queue, (b) communicating allocation decisions back, and
// (c) signaling job completion. Resource allocation policy stays in the
// daemon; cluster and job state management stays with the caller.
package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/core"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/telemetry"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// JobMsg is the wire form of a job submission. It carries no priority and no
// reservation: a job's value is the scheduler's to set, not the submitting
// tenant's. Its submit time is held inside the window it was queued in, after
// the previous cycle (at most a slice back) up to the one that drains it, and
// the daemon's own Rayon plan decides there whether an SLO job is reserved.
type JobMsg struct {
	ID          int     `json:"id"`
	Tenant      string  `json:"tenant,omitempty"` // the admitting tenant; empty is DefaultTenant
	Class       string  `json:"class"`            // "SLO" | "BE"
	Type        string  `json:"type"`             // "Unconstrained" | "GPU" | "MPI" | "Elastic"
	Submit      int64   `json:"submit"`
	K           int     `json:"k"`
	MinK        int     `json:"min_k,omitempty"`
	BaseRuntime int64   `json:"base_runtime"`
	Slowdown    float64 `json:"slowdown"`
	Deadline    int64   `json:"deadline,omitempty"`
	EstErr      float64 `json:"est_err,omitempty"`
	DataNodes   []int   `json:"data_nodes,omitempty"`
}

// maxRuntime bounds a job's believed runtime at full width, in seconds: a
// year, far past any window the scheduler plans and far inside int64.
const maxRuntime = 365 * 24 * 3600

// ToJob converts the wire form to a workload.Job for a cluster of nodes
// nodes, refusing a job whose pricing fields make no sense there.
func (m *JobMsg) ToJob(nodes int) (*workload.Job, error) {
	j := &workload.Job{
		ID: m.ID, Submit: m.Submit, K: m.K, MinK: m.MinK,
		BaseRuntime: m.BaseRuntime, Slowdown: m.Slowdown,
		Deadline: m.Deadline, EstErr: m.EstErr,
		DataNodes: m.DataNodes, Tenant: m.Tenant,
	}
	switch m.Class {
	case "SLO":
		j.Class = workload.SLO
	case "BE":
		j.Class = workload.BestEffort
	default:
		return nil, fmt.Errorf("httpapi: unknown class %q", m.Class)
	}
	types := [...]workload.Type{workload.Unconstrained, workload.GPU, workload.MPI, workload.Elastic, workload.DataLocal}
	if t := slices.IndexFunc(types[:], func(t workload.Type) bool { return t.String() == m.Type }); t >= 0 {
		j.Type = types[t]
	} else {
		return nil, fmt.Errorf("httpapi: unknown type %q", m.Type)
	}
	switch {
	case j.K <= 0 || j.BaseRuntime <= 0:
		return nil, fmt.Errorf("httpapi: job %d: invalid k=%d runtime=%d", j.ID, j.K, j.BaseRuntime)
	case j.K > nodes:
		return nil, fmt.Errorf("httpapi: job %d: k=%d exceeds the cluster's %d nodes", j.ID, j.K, nodes)
	case j.MinK < 0 || j.MinK > j.K:
		return nil, fmt.Errorf("httpapi: job %d: min_k=%d outside [0, k=%d]", j.ID, j.MinK, j.K)
	case slices.ContainsFunc(j.DataNodes, func(n int) bool { return n < 0 || n >= nodes }):
		return nil, fmt.Errorf("httpapi: job %d: a data_nodes entry is outside [0, %d)", j.ID, nodes)
	case j.EstErr <= -1:
		return nil, fmt.Errorf("httpapi: job %d: est_err=%v must exceed -1", j.ID, j.EstErr)
	case j.Slowdown < 1 && j.Type != workload.Unconstrained:
		return nil, fmt.Errorf("httpapi: job %d: slowdown=%v must be at least 1 for type %s", j.ID, j.Slowdown, m.Type)
	case float64(j.BaseRuntime)*max(1, j.Slowdown)*(1+max(0, j.EstErr)) > maxRuntime:
		return nil, fmt.Errorf("httpapi: job %d: base_runtime=%d × slowdown=%v × (1 + est_err=%v) is past %d s", j.ID, j.BaseRuntime, j.Slowdown, j.EstErr, maxRuntime)
	case j.Submit < 0:
		return nil, fmt.Errorf("httpapi: job %d: submit=%d is negative", j.ID, j.Submit)
	case j.Class == workload.SLO && j.Deadline <= j.Submit:
		return nil, fmt.Errorf("httpapi: job %d: SLO deadline=%d must be after submit=%d", j.ID, j.Deadline, j.Submit)
	}
	return j, nil
}

// FromJob converts a job to its wire form.
func FromJob(j *workload.Job) JobMsg {
	return JobMsg{
		ID: j.ID, Class: j.Class.String(), Type: j.Type.String(),
		Submit: j.Submit, K: j.K, MinK: j.MinK,
		BaseRuntime: j.BaseRuntime, Slowdown: j.Slowdown,
		Deadline: j.Deadline, EstErr: j.EstErr,
		DataNodes: j.DataNodes, Tenant: j.Tenant,
	}
}

// CycleRequest asks the daemon to run one scheduling cycle.
type CycleRequest struct {
	Now int64 `json:"now"`
	// Free lists the IDs of currently idle nodes (ground truth owned by the
	// resource manager, exactly as YARN owns NodeManager state).
	Free []int `json:"free"`
}

// DecisionMsg is one allocation decision.
type DecisionMsg struct {
	JobID int   `json:"job_id"`
	Nodes []int `json:"nodes"`
}

// CycleResponse carries the cycle's outcome.
type CycleResponse struct {
	Decisions []DecisionMsg `json:"decisions"`
	Dropped   []int         `json:"dropped,omitempty"`
	Preempted []int         `json:"preempted,omitempty"`
	// SolverMillis is the MILP time spent this cycle.
	SolverMillis float64 `json:"solver_millis"`
}

// CompletionMsg signals that a job finished and its nodes are free.
type CompletionMsg struct {
	JobID int   `json:"job_id"`
	Now   int64 `json:"now"`
}

// StatusResponse summarizes daemon state.
type StatusResponse struct {
	Scheduler string `json:"scheduler"`
	Pending   int    `json:"pending"`
	Running   int    `json:"running"`
	Universe  int    `json:"universe"`
	Cycles    uint64 `json:"cycles"`
	// HandlerPanics counts requests whose handler panicked and got a 500.
	HandlerPanics uint64 `json:"handler_panics"`
	// The drain's verdicts on SLO jobs from the daemon's Rayon plan.
	ReservationsAdmitted uint64 `json:"reservations_admitted"`
	ReservationsRejected uint64 `json:"reservations_rejected"`
	// Solver carries cumulative solve telemetry under core.SolverMetrics' keys
	// when the wrapped scheduler exposes it (core.Scheduler does).
	Solver map[string]any `json:"solver,omitempty"`
	// Shard carries sharded control-plane telemetry under core.ShardMetrics'
	// keys when the wrapped scheduler runs with Config.Shards > 0.
	Shard map[string]any `json:"shard,omitempty"`
	// Admission is the front-door ingress-queue state (POST /v1/submit).
	Admission *AdmissionStatusMsg `json:"admission,omitempty"`
}

// statsSource is implemented by schedulers that expose cumulative solver and
// sharding telemetry (core.Scheduler).
type statsSource interface {
	SolveStatsSnapshot() core.SolveStats
	ShardStatsSnapshot() core.ShardStats
}

// solveLatencyBuckets are the /metrics histogram bounds for per-cycle MILP
// latency, in seconds — spanning sub-millisecond warm cycles up to the
// multi-second budgets of §3.2.2 scale experiments.
var solveLatencyBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}

// snapshot is the daemon-side telemetry as of the last request that changed
// it. Those requests change s.live under s.mu and publish a copy; a published
// snapshot is never written again, so /v1/status and /metrics render the
// latest one without a lock and never wait behind a solve.
type snapshot struct {
	StatusResponse                  // the top level of /v1/status; its blocks are rendered per request
	Decisions, Preemptions, Dropped uint64
	SolveLatency                    *telemetry.Histogram
	SolveStats                      *core.SolveStats // nil when the scheduler exposes none
	ShardStats                      *core.ShardStats // nil when it is not sharded
}

// serverMetrics names the snapshot's own values for /metrics; a row's key is
// the StatusResponse field that shows the same value, where one does.
var serverMetrics = []telemetry.Metric[snapshot]{
	telemetry.Row("", "cycles", "tetrisched_cycles_total", "counter", "Scheduling cycles executed.", func(s *snapshot) any { return s.Cycles }),
	telemetry.Row("", "handler_panics", "tetrisched_handler_panics_total", "counter", "Requests whose handler panicked, answered 500.", func(s *snapshot) any { return s.HandlerPanics }),
	telemetry.Row("", "reservations_admitted", "tetrisched_reservations_admitted_total", "counter", "SLO jobs the drain reserved capacity for in the Rayon plan.", func(s *snapshot) any { return s.ReservationsAdmitted }),
	telemetry.Row("", "reservations_rejected", "tetrisched_reservations_rejected_total", "counter", "SLO jobs the Rayon plan could not reserve for at the drain; they run unreserved.", func(s *snapshot) any { return s.ReservationsRejected }),
	telemetry.Row("", "", "tetrisched_decisions_total", "counter", "Job launch decisions returned.", func(s *snapshot) any { return s.Decisions }),
	telemetry.Row("", "", "tetrisched_preemptions_total", "counter", "Running jobs preempted.", func(s *snapshot) any { return s.Preemptions }),
	telemetry.Row("", "", "tetrisched_dropped_total", "counter", "Pending jobs dropped (no remaining value).", func(s *snapshot) any { return s.Dropped }),
	telemetry.Row("", "pending", "tetrisched_jobs_pending", "gauge", "Jobs submitted but not running.", func(s *snapshot) any { return s.Pending }),
	telemetry.Row("", "running", "tetrisched_jobs_running", "gauge", "Jobs believed running.", func(s *snapshot) any { return s.Running }),
	telemetry.Row("", "universe", "tetrisched_cluster_nodes", "gauge", "Cluster size (node ID universe).", func(s *snapshot) any { return s.Universe }),
	telemetry.Row("", "", "tetrisched_solve_latency_seconds", "histogram", "Per-cycle MILP solver wall-clock (buckets 1 ms to 2.5 s).", func(s *snapshot) any { return s.SolveLatency }),
}

// Server wraps a scheduler behind the HTTP interface. It serializes all
// scheduler access, mirroring the single-threaded TetriSched daemon.
//
// Locking: s.mu guards the scheduler and the job/running maps; the admission
// ingress queue (s.adm) carries its own lock so the submit hot path never
// waits behind an in-flight MILP solve. The only lock order ever taken is
// s.mu → adm.mu (cycle); no path acquires them the other way around.
// /v1/status and /metrics take neither across a render: they load the last
// published snapshot and copy the admission state out under adm.mu.
type Server struct {
	mu       sync.Mutex
	sched    sim.Scheduler
	universe int
	live     snapshot                 // guarded by mu; see docs/OBSERVABILITY.md
	snap     atomic.Pointer[snapshot] // the last published copy of live
	jobs     map[int]*workload.Job
	running  map[int]bool
	plan     *rayon.Plan // Rayon's calendar: the drain admits SLO jobs to it (§2.1)
	tracer   *trace.Tracer
	since    int64 // one past the previous cycle's now: the next drain's window starts there at the earliest
	// panics counts recovered handler panics. It is not in live: a panic can
	// strike with s.mu in any state, so the renderers read it themselves.
	panics atomic.Uint64

	adm    *admission
	admLog *admissionLog

	// freeLists recycles the node-ID slices cycle requests are decoded into
	// (*[]int): encoding/json appends into the capacity it is handed, and a
	// list of a thousand idle nodes otherwise regrows from nothing per cycle.
	freeLists sync.Pool
}

// NewServer wraps sched; universe is the cluster size (node ID bound), and the
// capacity of the Rayon plan, whose quantum is sched's cycle period
// (sim.DefaultCyclePeriod when sched does not say). The admission front door
// starts with default limits (AdmissionConfig zero value); tune it with
// SetAdmission before serving.
func NewServer(sched sim.Scheduler, universe int) *Server {
	quantum := int64(sim.DefaultCyclePeriod)
	if p, ok := sched.(interface{ CyclePeriod() int64 }); ok {
		quantum = p.CyclePeriod()
	}
	s := &Server{
		sched:    sched,
		universe: universe,
		live: snapshot{StatusResponse: StatusResponse{Scheduler: sched.Name(), Universe: universe},
			SolveLatency: telemetry.NewHistogram(solveLatencyBuckets)},
		jobs:    make(map[int]*workload.Job),
		running: make(map[int]bool),
		plan:    rayon.NewPlan(universe, quantum),
		since:   math.MaxInt64, // the first drain places its jobs at now
		adm:     newAdmission(AdmissionConfig{}),
	}
	s.publish()
	return s
}

// publish makes the state as it stands what /v1/status and /metrics serve.
// Callers hold s.mu (or are the constructor).
func (s *Server) publish() {
	snap := s.live
	snap.Pending, snap.Running = len(s.jobs)-len(s.running), len(s.running)
	snap.SolveLatency = s.live.SolveLatency.Clone()
	if src, ok := s.sched.(statsSource); ok {
		st := src.SolveStatsSnapshot()
		snap.SolveStats = &st
		if sh := src.ShardStatsSnapshot(); sh.Shards > 0 {
			snap.ShardStats = &sh
		}
	}
	s.snap.Store(&snap)
}

// SetAdmission replaces the front-door admission configuration (queue bound,
// tenant weights/quotas, drain burst). Call before serving; it resets any
// queued state.
func (s *Server) SetAdmission(cfg AdmissionConfig) *Server {
	s.adm = newAdmission(cfg)
	return s
}

// ReconfigureTenants applies a new per-tenant admission configuration
// (weights, quotas, rate limits) to the live front door without resetting
// queued jobs, fair-share virtual times, or token balances. Safe to call
// while serving; tetrischedd wires it to SIGHUP for -tenants reloads.
func (s *Server) ReconfigureTenants(tenants []TenantConfig) {
	s.adm.reconfigure(tenants)
}

// SetAdmissionLog streams one NDJSON record per admission verdict (a batch
// accepted or refused) to w. Records are buffered; call FlushAdmissionLog on
// shutdown. Call before serving.
func (s *Server) SetAdmissionLog(w io.Writer) *Server {
	s.admLog = newAdmissionLog(w)
	return s
}

// FlushAdmissionLog flushes any buffered admission-log records.
func (s *Server) FlushAdmissionLog() {
	if s.admLog != nil {
		s.admLog.flush()
	}
}

// SetTracer attaches the tracer served by GET /v1/trace (nil disables the
// endpoint) and returns the server for chaining. The same tracer should be
// wired into the scheduler (core.Config.Tracer) so cycle internals land in
// the ring.
func (s *Server) SetTracer(tr *trace.Tracer) *Server {
	s.tracer = tr
	return s
}

// Handler returns the HTTP routes. Each answers one method; the mux answers
// 405 to any other. A handler that panics answers 500 and is counted
// (tetrisched_handler_panics_total); the daemon serves on.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/cycle", s.handleCycle)
	mux.HandleFunc("POST /v1/completions", s.handleCompletion)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer s.recoverPanic(w, r)
		mux.ServeHTTP(w, r)
	})
}

// recoverPanic, deferred around a handler, turns its panic into a 500. A lock
// held across code that can panic is released by defer, so the server is
// usable once the panic has unwound. http.ErrAbortHandler is passed on: it is
// net/http's own way to abort a response.
func (s *Server) recoverPanic(w http.ResponseWriter, r *http.Request) {
	v := recover()
	if v == nil {
		return
	}
	if v == http.ErrAbortHandler {
		panic(v)
	}
	s.panics.Add(1)
	s.tracer.Instant("http", "panic", trace.S("path", r.URL.Path))
	writeErr(w, http.StatusInternalServerError, fmt.Errorf("httpapi: internal error serving %s", r.URL.Path))
}

// admissionLog streams NDJSON admission records to a writer. Records are
// buffered (bufio) and must be flushed on shutdown; one record covers one
// batch verdict, never one job — the log stays proportional to request rate,
// not job rate. Every record's "mode" is "batch", kept for the log's readers.
type admissionLog struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func newAdmissionLog(w io.Writer) *admissionLog {
	return &admissionLog{bw: bufio.NewWriterSize(w, 32<<10)}
}

func (l *admissionLog) record(tenant, outcome string, jobs, code int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	fmt.Fprintf(l.bw, `{"t":%q,"mode":"batch","tenant":%q,"jobs":%d,"outcome":%q,"code":%d}`+"\n",
		time.Now().UTC().Format(time.RFC3339Nano), tenant, jobs, outcome, code)
	l.mu.Unlock()
}

func (l *admissionLog) flush() {
	l.mu.Lock()
	l.bw.Flush()
	l.mu.Unlock()
}

// logAdmission records one batch verdict. A batch may mix tenants; the log
// names the tenant when uniform and "multi" otherwise.
func (s *Server) logAdmission(jobs []*workload.Job, outcome string, code int) {
	if s.admLog == nil {
		return
	}
	tenant := jobs[0].Tenant
	for _, j := range jobs[1:] {
		if j.Tenant != tenant {
			tenant = "multi"
			break
		}
	}
	s.admLog.record(tenant, outcome, len(jobs), code)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // the headers are sent: an error has no one to go to
}

func (s *Server) handleCycle(w http.ResponseWriter, r *http.Request) {
	list, _ := s.freeLists.Get().(*[]int)
	if list == nil {
		list = new([]int)
	}
	defer s.freeLists.Put(list)
	req := CycleRequest{Free: (*list)[:0]}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	*list = req.Free // regrown, perhaps
	free := bitset.New(s.universe)
	for _, n := range req.Free {
		if n < 0 || n >= s.universe {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: node %d out of range", n))
			return
		}
		free.Add(n)
	}
	// Weighted-fair drain: move up to Burst queued jobs from the ingress
	// queue into the scheduler's pending queue before this cycle plans.
	// drain takes only adm.mu and finishes before s.mu is acquired.
	admitted := s.adm.drain(s.adm.cfg.Burst)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The drain's window starts after the previous cycle, or one slice back
	// when now has jumped further: the calendar then skips the gap.
	since := min(max(s.since, req.Now-s.plan.Quantum()), req.Now)
	s.since = req.Now + 1
	s.plan.Forget(since) // the drain admits nothing before its window
	if len(admitted) > 0 {
		fresh := 0
		for _, j := range admitted {
			if _, dup := s.jobs[j.ID]; dup {
				// Survived enqueue-side dup checks but collides with a job
				// the scheduler already knows (e.g. resubmitted after a
				// previous drain): drop it here rather than corrupting the
				// scheduler's books.
				s.adm.noteDupDrop(j.Tenant)
				continue
			}
			// A submit time from the future would hold a best-effort job's
			// value up (strlgen's decay runs from Submit); one before the job's
			// window would have Rayon, which admits SLO jobs as they arrive, in
			// drain order, reserve it in slices already gone.
			j.Submit = min(max(j.Submit, since), req.Now)
			if j.Reserved = j.Class == workload.SLO && s.plan.Admit(j.ID, j.Submit, j.Deadline, j.K, j.EstRuntime(true)) != nil; j.Reserved {
				s.live.ReservationsAdmitted++
			} else if j.Class == workload.SLO {
				s.live.ReservationsRejected++
			}
			s.jobs[j.ID] = j
			s.sched.Submit(j.Submit, j)
			fresh++
		}
		s.tracer.Instant("admit", "drain", trace.I("jobs", int64(fresh)),
			trace.I("dup_dropped", int64(len(admitted)-fresh)))
	}
	cr := s.sched.Cycle(req.Now, free)
	s.live.Cycles++
	s.live.Decisions += uint64(len(cr.Decisions))
	s.live.Preemptions += uint64(len(cr.Preempted))
	s.live.Dropped += uint64(len(cr.Dropped))
	s.live.SolveLatency.Observe(cr.SolverLatency.Seconds())
	resp := CycleResponse{SolverMillis: float64(cr.SolverLatency.Microseconds()) / 1000}
	for _, p := range cr.Preempted {
		resp.Preempted = append(resp.Preempted, p.ID)
		delete(s.running, p.ID)
	}
	for _, d := range cr.Decisions {
		resp.Decisions = append(resp.Decisions, DecisionMsg{JobID: d.Job.ID, Nodes: d.Nodes})
		s.running[d.Job.ID] = true
	}
	for _, j := range cr.Dropped {
		resp.Dropped = append(resp.Dropped, j.ID)
		delete(s.jobs, j.ID)
		s.plan.Release(s.plan.Lookup(j.ID), req.Now)
	}
	s.publish()
	writeJSON(w, &resp)
}

func (s *Server) handleCompletion(w http.ResponseWriter, r *http.Request) {
	var msg CompletionMsg
	if err := decodeBody(r, &msg); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[msg.JobID]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: unknown job %d", msg.JobID))
		return
	}
	if !s.running[msg.JobID] {
		// Still pending (or preempted back to pending): finishing it here would
		// leave it in the scheduler's queue to launch, and its real completion
		// would then find no job.
		writeErr(w, http.StatusConflict, fmt.Errorf("httpapi: job %d has not launched", msg.JobID))
		return
	}
	delete(s.jobs, msg.JobID)
	delete(s.running, msg.JobID)
	s.plan.Release(s.plan.Lookup(msg.JobID), msg.Now)
	s.sched.JobFinished(msg.Now, job)
	s.publish()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	resp := snap.StatusResponse // a copy: a published snapshot is never written
	resp.HandlerPanics = s.panics.Load()
	resp.Admission = s.adm.status()
	if snap.SolveStats != nil {
		resp.Solver = telemetry.Object(core.SolverMetrics, snap.SolveStats)
	}
	if snap.ShardStats != nil {
		resp.Shard = telemetry.Object(core.ShardMetrics, snap.ShardStats)
	}
	writeJSON(w, &resp)
}

// handleTrace serves a Chrome trace-event JSON snapshot of the daemon's
// trace ring — download and load into Perfetto (ui.perfetto.dev) or
// chrome://tracing. 404 when the daemon runs with tracing disabled.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: tracing disabled"))
		return
	}
	snap := s.tracer.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="tetrisched-trace.json"`)
	_ = trace.WriteChrome(w, snap) // the headers are sent: a truncated body is the best there is
}

// handleMetrics serves Prometheus text exposition format (version 0.0.4): the
// daemon's own table, the admission door's two and, when the scheduler exposes
// them, core's solver and shard tables (docs/OBSERVABILITY.md lists the rows).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := *s.snap.Load() // a copy: a published snapshot is never written
	snap.HandlerPanics = s.panics.Load()
	var b strings.Builder
	telemetry.Prom(&b, serverMetrics, nil, &snap)
	adm := s.adm.status()
	telemetry.Prom(&b, admissionMetrics, nil, adm)
	telemetry.Prom(&b, tenantMetrics, func(t *TenantStatusMsg) string { return fmt.Sprintf("{tenant=%q}", t.Name) }, adm.Tenants...)
	if snap.SolveStats != nil {
		telemetry.Prom(&b, core.SolverMetrics, nil, snap.SolveStats)
	}
	if snap.ShardStats != nil {
		telemetry.Prom(&b, core.ShardMetrics, nil, snap.ShardStats)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
