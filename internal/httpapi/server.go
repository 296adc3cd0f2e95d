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
	"net/http"
	"strings"
	"sync"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/core"
	"tetrisched/internal/sim"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// JobMsg is the wire form of a job submission.
type JobMsg struct {
	ID          int     `json:"id"`
	Tenant      string  `json:"tenant,omitempty"` // multi-tenant front door (POST /v1/submit)
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
	Priority    float64 `json:"priority,omitempty"`
	Reserved    bool    `json:"reserved"`
}

// ToJob converts the wire form to a workload.Job.
func (m *JobMsg) ToJob() (*workload.Job, error) {
	j := &workload.Job{
		ID: m.ID, Submit: m.Submit, K: m.K, MinK: m.MinK,
		BaseRuntime: m.BaseRuntime, Slowdown: m.Slowdown,
		Deadline: m.Deadline, EstErr: m.EstErr, Reserved: m.Reserved,
		DataNodes: m.DataNodes, Priority: m.Priority, Tenant: m.Tenant,
	}
	switch m.Class {
	case "SLO":
		j.Class = workload.SLO
	case "BE":
		j.Class = workload.BestEffort
	default:
		return nil, fmt.Errorf("httpapi: unknown class %q", m.Class)
	}
	switch m.Type {
	case "Unconstrained":
		j.Type = workload.Unconstrained
	case "GPU":
		j.Type = workload.GPU
	case "MPI":
		j.Type = workload.MPI
	case "Elastic":
		j.Type = workload.Elastic
	case "DataLocal":
		j.Type = workload.DataLocal
	default:
		return nil, fmt.Errorf("httpapi: unknown type %q", m.Type)
	}
	if j.K <= 0 || j.BaseRuntime <= 0 {
		return nil, fmt.Errorf("httpapi: job %d: invalid k=%d runtime=%d", j.ID, j.K, j.BaseRuntime)
	}
	return j, nil
}

// FromJob converts a job to its wire form.
func FromJob(j *workload.Job) JobMsg {
	return JobMsg{
		ID: j.ID, Class: j.Class.String(), Type: j.Type.String(),
		Submit: j.Submit, K: j.K, MinK: j.MinK,
		BaseRuntime: j.BaseRuntime, Slowdown: j.Slowdown,
		Deadline: j.Deadline, EstErr: j.EstErr, Reserved: j.Reserved,
		DataNodes: j.DataNodes, Priority: j.Priority, Tenant: j.Tenant,
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

// SolverStatusMsg is the cumulative MILP/LP telemetry block of a status
// response — the daemon-side view of core.SolveStats.
type SolverStatusMsg struct {
	Solves          int     `json:"solves"`
	Nodes           int     `json:"bb_nodes"`
	MaxNodes        int     `json:"bb_nodes_max"`
	Workers         int     `json:"workers"`
	WarmStarts      int     `json:"warm_starts"`
	LPIters         int64   `json:"lp_iterations"`
	Phase1          int     `json:"lp_phase1"`
	WarmLPs         int     `json:"lp_warm_hits"`
	ColdLPs         int     `json:"lp_cold_starts"`
	Decomposed      int     `json:"decomposed_solves"`
	Components      int     `json:"components"`
	ReuseHits       int     `json:"reuse_hits"`
	ReuseMisses     int     `json:"reuse_misses"`
	ReuseHitRate    float64 `json:"reuse_hit_rate"`
	ExprHits        int     `json:"expr_hits"`
	ExprMisses      int     `json:"expr_misses"`
	CompileSkips    int     `json:"compile_skips"`
	CompileJobs     int     `json:"compile_jobs"`
	CompileSkipRate float64 `json:"compile_skip_rate"`
	GenerateMillis  float64 `json:"generate_millis"`
	CompileMillis   float64 `json:"compile_millis"`
	WarmHitRate     float64 `json:"lp_warm_hit_rate"`
	MeanSolveMillis float64 `json:"mean_solve_millis"`
	MaxSolveMillis  float64 `json:"max_solve_millis"`
	PresolveFixed   int     `json:"presolve_vars_fixed"`
	PresolveRows    int     `json:"presolve_rows_dropped"`
	PresolveCliques int     `json:"presolve_cliques_merged"`
	PresolveRounds  int     `json:"presolve_rounds"`
	PresolveMillis  float64 `json:"presolve_millis"`
	Factorizations  int64   `json:"lp_factorizations"`
	EtaUpdates      int64   `json:"lp_eta_updates"`
	DenseFallbacks  int     `json:"lp_dense_fallbacks"`
	CutRounds       int     `json:"cut_rounds"`
	CoverCuts       int     `json:"cover_cuts"`
	CliqueCuts      int     `json:"clique_cuts"`
	PCBranches      int64   `json:"pseudocost_branches"`
	FracBranches    int64   `json:"fractional_branches"`
}

// ShardStatusMsg is the sharded control-plane telemetry block of a status
// response — the daemon-side view of core.ShardStats (docs/SHARDING.md).
type ShardStatusMsg struct {
	Shards      int    `json:"shards"`
	Partitioner string `json:"partitioner"`
	Cycles      int64  `json:"cycles"`
	Spanning    int64  `json:"spanning_jobs"`
	Conflicts   int64  `json:"conflicts"`
	Requeued    int64  `json:"requeued"`
	ArbLaunched int64  `json:"arbitrator_launched"`
	ArbDeferred int64  `json:"arbitrator_deferred"`
}

// StatusResponse summarizes daemon state.
type StatusResponse struct {
	Scheduler string `json:"scheduler"`
	Pending   int    `json:"pending"`
	Running   int    `json:"running"`
	Universe  int    `json:"universe"`
	Cycles    uint64 `json:"cycles"`
	// Solver carries cumulative solve telemetry when the wrapped scheduler
	// exposes it (core.Scheduler does); absent otherwise.
	Solver *SolverStatusMsg `json:"solver,omitempty"`
	// Shard carries sharded control-plane telemetry when the wrapped
	// scheduler runs with Config.Shards > 0; absent otherwise.
	Shard *ShardStatusMsg `json:"shard,omitempty"`
	// Admission is the front-door ingress-queue state (POST /v1/submit).
	Admission *AdmissionStatusMsg `json:"admission,omitempty"`
}

// solveStatsSource is implemented by schedulers that expose cumulative MILP
// telemetry (core.Scheduler.SolveStatsSnapshot).
type solveStatsSource interface {
	SolveStatsSnapshot() core.SolveStats
}

// shardStatsSource is implemented by schedulers that expose sharded
// control-plane telemetry (core.Scheduler.ShardStatsSnapshot).
type shardStatsSource interface {
	ShardStatsSnapshot() core.ShardStats
}

// solveLatencyBuckets are the /metrics histogram bounds for per-cycle MILP
// latency, in seconds — spanning sub-millisecond warm cycles up to the
// multi-second budgets of §3.2.2 scale experiments.
var solveLatencyBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}

// histogram is a fixed-bucket Prometheus-style cumulative histogram.
type histogram struct {
	buckets []float64 // upper bounds, ascending; an implicit +Inf follows
	counts  []uint64  // per-bucket (non-cumulative) counts; last is +Inf
	sum     float64
	count   uint64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Server wraps a scheduler behind the HTTP interface. It serializes all
// scheduler access, mirroring the single-threaded TetriSched daemon.
//
// Locking: s.mu guards the scheduler and the job/running maps; the admission
// ingress queue (s.adm) carries its own lock so the submit hot path never
// waits behind an in-flight MILP solve. The only lock order ever taken is
// s.mu → adm.mu (status/metrics/cycle); no path acquires them the other way
// around.
type Server struct {
	mu       sync.Mutex
	sched    sim.Scheduler
	universe int
	jobs     map[int]*workload.Job
	running  map[int]bool
	tracer   *trace.Tracer

	adm    *admission
	admLog *admissionLog

	// freeLists recycles the node-ID slices cycle requests are decoded into
	// (*[]int): encoding/json appends into the capacity it is handed, and a
	// list of a thousand idle nodes otherwise regrows from nothing per cycle.
	freeLists sync.Pool

	// Daemon-side observability counters (see docs/OBSERVABILITY.md).
	cycles      uint64
	decisions   uint64
	preemptions uint64
	dropped     uint64
	solveHist   *histogram
}

// NewServer wraps sched; universe is the cluster size (node ID bound). The
// admission front door starts with default limits (AdmissionConfig zero
// value); tune it with SetAdmission before serving.
func NewServer(sched sim.Scheduler, universe int) *Server {
	return &Server{
		sched:     sched,
		universe:  universe,
		jobs:      make(map[int]*workload.Job),
		running:   make(map[int]bool),
		adm:       newAdmission(AdmissionConfig{}),
		solveHist: newHistogram(solveLatencyBuckets),
	}
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

// SetAdmissionLog streams one NDJSON record per admission verdict (batch
// accepted/rejected, stream totals) to w. Records are buffered; call
// FlushAdmissionLog on shutdown. Call before serving.
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

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/cycle", s.handleCycle)
	mux.HandleFunc("/v1/completions", s.handleCompletion)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// admissionLog streams NDJSON admission records to a writer. Records are
// buffered (bufio) and must be flushed on shutdown; one record covers one
// batch verdict or one completed stream, never one job — the log stays
// proportional to request rate, not job rate.
type admissionLog struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func newAdmissionLog(w io.Writer) *admissionLog {
	return &admissionLog{bw: bufio.NewWriterSize(w, 32<<10)}
}

func (l *admissionLog) record(mode, tenant, outcome string, jobs, code int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	fmt.Fprintf(l.bw, `{"t":%q,"mode":%q,"tenant":%q,"jobs":%d,"outcome":%q,"code":%d}`+"\n",
		time.Now().UTC().Format(time.RFC3339Nano), mode, tenant, jobs, outcome, code)
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
	s.admLog.record("batch", tenant, outcome, len(jobs), code)
}

// logStream records one completed NDJSON stream's totals.
func (s *Server) logStream(accepted, rejected, malformed int64) {
	if s.admLog == nil {
		return
	}
	s.admLog.record("stream", "", fmt.Sprintf("accepted=%d rejected=%d malformed=%d",
		accepted, rejected, malformed), int(accepted), 0)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		_ = err
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var msg JobMsg
	if err := decodeBody(r, &msg); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	job, err := msg.ToJob()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobs[job.ID]; dup {
		writeErr(w, http.StatusConflict, fmt.Errorf("httpapi: duplicate job %d", job.ID))
		return
	}
	s.jobs[job.ID] = job
	s.sched.Submit(job.Submit, job)
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) handleCycle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
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
			s.jobs[j.ID] = j
			s.sched.Submit(j.Submit, j)
			fresh++
		}
		s.tracer.Instant("admit", "drain", trace.I("jobs", int64(fresh)),
			trace.I("dup_dropped", int64(len(admitted)-fresh)))
	}
	cr := s.sched.Cycle(req.Now, free)
	s.cycles++
	s.decisions += uint64(len(cr.Decisions))
	s.preemptions += uint64(len(cr.Preempted))
	s.dropped += uint64(len(cr.Dropped))
	s.solveHist.observe(cr.SolverLatency.Seconds())
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
	}
	writeJSON(w, &resp)
}

func (s *Server) handleCompletion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
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
	delete(s.jobs, msg.JobID)
	delete(s.running, msg.JobID)
	s.sched.JobFinished(msg.Now, job)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := &StatusResponse{
		Scheduler: s.sched.Name(),
		Pending:   len(s.jobs) - len(s.running),
		Running:   len(s.running),
		Universe:  s.universe,
		Cycles:    s.cycles,
		Admission: s.adm.status(),
	}
	if src, ok := s.sched.(solveStatsSource); ok {
		st := src.SolveStatsSnapshot()
		resp.Solver = &SolverStatusMsg{
			Solves: st.Solves, Nodes: st.Nodes, MaxNodes: st.MaxNodes,
			Workers: st.Workers, WarmStarts: st.WarmStarts,
			LPIters: st.LPIters, Phase1: st.Phase1,
			WarmLPs: st.WarmLPs, ColdLPs: st.ColdLPs,
			Decomposed: st.Decomposed, Components: st.Components,
			ReuseHits: st.ReuseHits, ReuseMisses: st.ReuseMisses,
			ReuseHitRate:    st.ReuseHitRate(),
			ExprHits:        st.ExprHits,
			ExprMisses:      st.ExprMisses,
			CompileSkips:    st.CompileSkips,
			CompileJobs:     st.CompileJobs,
			CompileSkipRate: st.CompileSkipRate(),
			GenerateMillis:  float64(st.GenerateNS) / 1e6,
			CompileMillis:   float64(st.CompileNS) / 1e6,
			WarmHitRate:     st.WarmHitRate(),
			MeanSolveMillis: ms(st.MeanSolve()),
			MaxSolveMillis:  ms(st.MaxSolve),
			PresolveFixed:   st.PresolveFixed,
			PresolveRows:    st.PresolveRows,
			PresolveCliques: st.PresolveCliques,
			PresolveRounds:  st.PresolveRounds,
			PresolveMillis:  ms(st.PresolveTime),
			Factorizations:  st.Factorizations,
			EtaUpdates:      st.EtaUpdates,
			DenseFallbacks:  st.DenseFallbacks,
			CutRounds:       st.CutRounds,
			CoverCuts:       st.CoverCuts,
			CliqueCuts:      st.CliqueCuts,
			PCBranches:      st.PseudocostBranches,
			FracBranches:    st.FractionalBranches,
		}
	}
	if src, ok := s.sched.(shardStatsSource); ok {
		if st := src.ShardStatsSnapshot(); st.Shards > 0 {
			resp.Shard = &ShardStatusMsg{
				Shards: st.Shards, Partitioner: st.Partitioner, Cycles: st.Cycles,
				Spanning: st.Spanning, Conflicts: st.Conflicts, Requeued: st.Requeued,
				ArbLaunched: st.ArbLaunched, ArbDeferred: st.ArbDeferred,
			}
		}
	}
	writeJSON(w, resp)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// handleTrace serves a Chrome trace-event JSON snapshot of the daemon's
// trace ring — download and load into Perfetto (ui.perfetto.dev) or
// chrome://tracing. 404 when the daemon runs with tracing disabled.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	if s.tracer == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: tracing disabled"))
		return
	}
	snap := s.tracer.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="tetrisched-trace.json"`)
	if err := trace.WriteChrome(w, snap); err != nil {
		// Headers already sent; the truncated body is the best we can do.
		_ = err
	}
}

// handleMetrics serves Prometheus text exposition format (version 0.0.4):
// cycle/decision counters, a per-cycle solve-latency histogram, queue
// gauges, and — when the scheduler exposes them — cumulative solver totals
// (B&B nodes, LP iterations, warm-hit rate). Metric names are documented in
// docs/OBSERVABILITY.md.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("tetrisched_cycles_total", "Scheduling cycles executed.", s.cycles)
	counter("tetrisched_decisions_total", "Job launch decisions returned.", s.decisions)
	counter("tetrisched_preemptions_total", "Running jobs preempted.", s.preemptions)
	counter("tetrisched_dropped_total", "Pending jobs dropped (no remaining value).", s.dropped)
	gauge("tetrisched_jobs_pending", "Jobs submitted but not running.", float64(len(s.jobs)-len(s.running)))
	gauge("tetrisched_jobs_running", "Jobs believed running.", float64(len(s.running)))
	gauge("tetrisched_cluster_nodes", "Cluster size (node ID universe).", float64(s.universe))

	writeHistogram(&b, "tetrisched_solve_latency_seconds",
		"Per-cycle MILP solver wall-clock.", s.solveHist)

	s.adm.writeMetrics(&b)

	if src, ok := s.sched.(solveStatsSource); ok {
		st := src.SolveStatsSnapshot()
		counter("tetrisched_solver_solves_total", "MILP solves across all cycles.", uint64(st.Solves))
		counter("tetrisched_solver_bb_nodes_total", "Branch-and-bound nodes explored.", uint64(st.Nodes))
		gauge("tetrisched_solver_bb_nodes_max", "Largest single-solve node count.", float64(st.MaxNodes))
		gauge("tetrisched_solver_workers", "Workers used by the most recent solve.", float64(st.Workers))
		counter("tetrisched_solver_warm_starts_total", "Solves seeded with the previous cycle's plan.", uint64(st.WarmStarts))
		counter("tetrisched_solver_lp_iterations_total", "Simplex pivots across all relaxations.", uint64(st.LPIters))
		counter("tetrisched_solver_lp_warm_hits_total", "Node LPs re-solved warm from a parent basis.", uint64(st.WarmLPs))
		counter("tetrisched_solver_lp_cold_starts_total", "LPs solved from scratch.", uint64(st.ColdLPs))
		counter("tetrisched_solver_decomposed_total", "Global solves split into independent components.", uint64(st.Decomposed))
		counter("tetrisched_solver_components_total", "Sub-MILPs solved across all decomposed solves.", uint64(st.Components))
		counter("tetrisched_solver_reuse_hits_total", "Component sub-solves replayed from the previous cycle.", uint64(st.ReuseHits))
		counter("tetrisched_solver_reuse_misses_total", "Components that had to be solved.", uint64(st.ReuseMisses))
		gauge("tetrisched_solver_reuse_hit_rate", "Fraction of component sub-solves served by replay.", st.ReuseHitRate())
		counter("tetrisched_solver_expr_cache_hits_total", "Pending-job STRL requests served from the expression cache.", uint64(st.ExprHits))
		counter("tetrisched_solver_expr_cache_misses_total", "Pending-job STRL requests generated fresh.", uint64(st.ExprMisses))
		counter("tetrisched_solver_compile_skips_total", "Batch jobs whose coupling class was kept, compiled model and all.", uint64(st.CompileSkips))
		counter("tetrisched_solver_compile_jobs_total", "Batch jobs compiled into a MILP.", uint64(st.CompileJobs))
		gauge("tetrisched_solver_compile_skip_rate", "Fraction of batch jobs whose class was kept rather than compiled.", st.CompileSkipRate())
		const genSec = "tetrisched_solver_generate_seconds_total"
		fmt.Fprintf(&b, "# HELP %s Cumulative STRL generation wall-clock.\n# TYPE %s counter\n%s %g\n",
			genSec, genSec, genSec, float64(st.GenerateNS)/1e9)
		const compSec = "tetrisched_solver_compile_seconds_total"
		fmt.Fprintf(&b, "# HELP %s Cumulative MILP compilation wall-clock.\n# TYPE %s counter\n%s %g\n",
			compSec, compSec, compSec, float64(st.CompileNS)/1e9)
		gauge("tetrisched_solver_lp_warm_hit_rate", "Fraction of node LPs served warm.", st.WarmHitRate())
		counter("tetrisched_solver_presolve_vars_fixed_total", "Variables fixed by presolve before branch-and-bound.", uint64(st.PresolveFixed))
		counter("tetrisched_solver_presolve_rows_dropped_total", "Constraint rows eliminated by presolve.", uint64(st.PresolveRows))
		counter("tetrisched_solver_presolve_cliques_merged_total", "Choose-at-most-one rows merged by clique domination.", uint64(st.PresolveCliques))
		counter("tetrisched_solver_presolve_rounds_total", "Presolve fixpoint rounds run.", uint64(st.PresolveRounds))
		const psSec = "tetrisched_solver_presolve_seconds_total"
		fmt.Fprintf(&b, "# HELP %s Cumulative presolve wall-clock.\n# TYPE %s counter\n%s %g\n",
			psSec, psSec, psSec, st.PresolveTime.Seconds())
		counter("tetrisched_solver_lp_factorizations_total", "Basis factorizations (sparse LU or dense fallback).", uint64(st.Factorizations))
		counter("tetrisched_solver_lp_eta_updates_total", "Forrest-Tomlin eta updates applied between refactorizations.", uint64(st.EtaUpdates))
		counter("tetrisched_solver_lp_dense_fallbacks_total", "LP scratches that abandoned sparse LU for the dense inverse.", uint64(st.DenseFallbacks))
		counter("tetrisched_solver_cut_rounds_total", "Root cutting-plane separation rounds that tightened a relaxation.", uint64(st.CutRounds))
		counter("tetrisched_solver_cover_cuts_total", "Knapsack cover cuts added at root nodes.", uint64(st.CoverCuts))
		counter("tetrisched_solver_clique_cuts_total", "Conflict clique cuts added at root nodes.", uint64(st.CliqueCuts))
		counter("tetrisched_solver_pseudocost_branches_total", "Branch decisions taken by learned pseudocosts.", uint64(st.PseudocostBranches))
		counter("tetrisched_solver_fractional_branches_total", "Branch decisions by the most-fractional fallback.", uint64(st.FractionalBranches))
	}

	if src, ok := s.sched.(shardStatsSource); ok {
		if st := src.ShardStatsSnapshot(); st.Shards > 0 {
			gauge("tetrisched_shard_shards", "Configured shard count (0 = monolithic).", float64(st.Shards))
			counter("tetrisched_shard_cycles_total", "Sharded global cycles executed.", uint64(st.Cycles))
			counter("tetrisched_shard_spanning_jobs_total", "Jobs routed to the gang arbitrator (demand spans shards).", uint64(st.Spanning))
			counter("tetrisched_shard_conflicts_total", "Commit-time cross-shard double-claims detected.", uint64(st.Conflicts))
			counter("tetrisched_shard_requeued_total", "Jobs requeued intact after losing a double-claim.", uint64(st.Requeued))
			counter("tetrisched_shard_arbitrator_launched_total", "Arbitrator jobs launched.", uint64(st.ArbLaunched))
			counter("tetrisched_shard_arbitrator_deferred_total", "Arbitrator jobs deferred or requeued intact.", uint64(st.ArbDeferred))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// trimFloat renders a histogram bound the way Prometheus clients expect
// (no exponent for these magnitudes).
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// writeHistogram renders one fixed-bucket histogram in Prometheus text
// exposition format.
func writeHistogram(b *strings.Builder, name, help string, h *histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, trimFloat(ub), cum)
	}
	cum += h.counts[len(h.buckets)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.count)
}
