package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/httpapi"
	"tetrisched/internal/rayon"
	"tetrisched/internal/workload"
)

// frontdoor_open drives an in-process tetrischedd (httpapi.Server over
// core.Scheduler, default admission limits) through a loopback listener with
// exactly two connections, one per core of the box it was sized on:
//
//   - the generator, open loop: it POSTs each job to /v1/submit at the wall
//     time the job is due, whatever happened to the one before. Submitters
//     are independent users, so a slow daemon must not slow them down;
//     latencies are counted from the due time and the generator's own
//     lateness is reported.
//   - the node manager: every 20 ms it POSTs /v1/completions for launched
//     jobs whose true runtime has elapsed and then /v1/cycle with the true
//     free list.
//
// Time is compressed: one 4 s virtual cycle is 20 ms of wall time, so the GS
// HET trace at half load offers ~150 jobs/s. As on the trace workloads the
// arrival pattern is fixed and the seed jitters it.
const (
	fdRacks     = 32
	fdPerRack   = 32
	fdGPURacks  = 8
	fdUtil      = 0.5
	fdBaseSeed  = 1
	fdTick      = 20 * time.Millisecond // wall time per cycle
	fdWallPerVS = fdTick / cyclePeriod  // wall time per virtual second
	fdPlanAhead = 96
)

func fdCluster() *cluster.Cluster {
	b := cluster.NewBuilder()
	k, v := cluster.GPUAttr()
	for r := 0; r < fdRacks; r++ {
		var attrs map[string]string
		if r < fdGPURacks {
			attrs = map[string]string{k: v}
		}
		b.AddRack(fmt.Sprintf("r%d", r), fdPerRack, attrs)
	}
	return b.Build()
}

func frontdoorLayers() layers {
	return layers{c: fdCluster(), period: cyclePeriod, planAhead: fdPlanAhead, maxBatch: 48}
}

// frontdoorStats is what only this workload measures.
type frontdoorStats struct {
	submitRTT      sample // ms, from the due time to the 202
	submitToLaunch sample // ms, from the due time to the cycle response naming the job
	queueWait      sample // ms, from the 202 to the wrapped Submit (traced run)
	genLate        sample // ms the generator sent after the due time
	drvLate        sample // ms the node manager ticked after its due time
	launched       int
	wall           time.Duration
	requests       int64
	rejected429    int64
	errors5xx      int64

	submitHandlerUS   sample
	completeHandlerUS sample
	cycleHandlerSelf  sample // ms
}

// httpProbe wraps the daemon's handler: it always adds up handler time (the
// busy time of this workload) and status codes; with a recorder it records a
// span per request and publishes the scheduler connection's open span so the
// probe can parent its spans to it.
type httpProbe struct {
	next        http.Handler
	rec         *recorder
	cur         atomic.Int64 // open span of the scheduler connection, -1 if none
	busyNS      atomic.Int64
	requests    atomic.Int64
	rejected429 atomic.Int64
	errors5xx   atomic.Int64
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// benchIDHeader carries the identifier (job ID or cycle index) a request's
// span shares with the scheduler spans of the same trip. The daemon ignores
// it.
const benchIDHeader = "X-Bench-Id"

func (h *httpProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := -1
	schedConn := r.URL.Path != "/v1/submit"
	if h.rec != nil {
		id, _ := strconv.ParseInt(r.Header.Get(benchIDHeader), 10, 64)
		sp = h.rec.begin("httpapi."+r.URL.Path[len("/v1/"):], -1, id)
		if schedConn {
			h.cur.Store(int64(sp))
		}
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	h.next.ServeHTTP(sw, r)
	h.busyNS.Add(int64(time.Since(t0)))
	if sp >= 0 {
		h.rec.end(sp)
		if schedConn {
			h.cur.Store(-1)
		}
	}
	h.requests.Add(1)
	switch {
	case sw.code == http.StatusTooManyRequests:
		h.rejected429.Add(1)
	case sw.code >= 500:
		h.errors5xx.Add(1)
	}
}

// fdJob is the harness's record of one submitted job.
type fdJob struct {
	job      *workload.Job
	due      time.Duration // offset from the repetition's start
	ackAt    time.Time     // when the 202 arrived; zero if the submit failed
	launchV  int64         // virtual launch time, -1 while unlaunched
	finishV  int64
	nodes    []int
	disposed bool // launched or dropped
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// post sends body and drains the response. A transport error reports code 0.
func post(c *http.Client, url string, id int64, body []byte, out interface{}) int {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(benchIDHeader, strconv.FormatInt(id, 10))
	resp, err := c.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func frontdoorRep(r *run, i int) error {
	// Set-up: cluster, trace, admission control, scheduler, daemon, listener.
	t0 := time.Now()
	c := fdCluster()
	wallS := r.sc.frontdoorWall.Seconds()
	mix := workload.GSHET(int(wallS*200) + 50) // ~150 jobs/s are due; generate past the end
	mix.TargetUtil = fdUtil
	all, err := perturbedTrace(mix, c, fdBaseSeed, r.inputSeed(i), traceJitter)
	if err != nil {
		return err
	}
	plan := rayon.NewPlan(c.N(), cyclePeriod)
	var jobs []*fdJob
	byID := make(map[int]*fdJob)
	for _, j := range all {
		due := time.Duration(j.Submit) * fdWallPerVS
		if due >= r.sc.frontdoorWall {
			break
		}
		if j.Class == workload.SLO {
			j.Reserved = plan.Admit(j.ID, j.Submit, j.Deadline, j.K, j.EstRuntime(true)) != nil
		}
		fj := &fdJob{job: j, due: due, launchV: -1}
		jobs = append(jobs, fj)
		byID[j.ID] = fj
	}
	sched := core.New(c, core.Config{CyclePeriod: cyclePeriod, PlanAhead: fdPlanAhead})
	p := newProbe(sched, c, r.label(i), r.rec, r.caps)
	hp := &httpProbe{next: httpapi.NewServer(p, c.N()).Handler(), rec: r.rec}
	hp.cur.Store(-1)
	if r.rec != nil {
		p.httpParent = &hp.cur
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: hp}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns when srv.Close is called below
		close(served)
	}()
	base := "http://" + ln.Addr().String()
	genClient, mgrClient := newClient(), newClient()
	r.setupS.add(time.Since(t0).Seconds())

	fd := &r.fd
	spanFrom := 0
	if r.rec != nil {
		spanFrom = len(r.rec.spans)
	}
	var accepted, submitFailed atomic.Int64
	var launched int
	var rtt []float64 // the node manager's /v1/cycle round trips, ms
	rp := r.measure(func() {
		start := time.Now()
		genDone := make(chan struct{})
		var rtts, late []float64
		go func() { // the generator connection
			defer close(genDone)
			for _, fj := range jobs {
				due := start.Add(fj.due)
				time.Sleep(time.Until(due))
				late = append(late, ms(time.Since(due)))
				msg := httpapi.FromJob(fj.job)
				body, _ := json.Marshal([]httpapi.JobMsg{msg}) // a struct of plain fields cannot fail to encode
				code := post(genClient, base+"/v1/submit", int64(fj.job.ID), body, nil)
				if code != http.StatusAccepted {
					submitFailed.Add(1)
					continue
				}
				fj.ackAt = time.Now()
				rtts = append(rtts, ms(fj.ackAt.Sub(due)))
				accepted.Add(1)
			}
		}()

		// The node-manager connection.
		free := c.All()
		var running []*fdJob
		disposed := int64(0)
		var genEnd time.Time
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * fdTick)
			time.Sleep(time.Until(due))
			fd.drvLate.add(ms(time.Since(due)))
			vnow := int64(k) * cyclePeriod
			still := running[:0]
			for _, fj := range running {
				if fj.finishV > vnow {
					still = append(still, fj)
					continue
				}
				body, _ := json.Marshal(httpapi.CompletionMsg{JobID: fj.job.ID, Now: vnow})
				if code := post(mgrClient, base+"/v1/completions", int64(fj.job.ID), body, nil); code != http.StatusNoContent {
					r.problem("%s: completion of job %d answered %d", r.label(i), fj.job.ID, code)
				}
				for _, n := range fj.nodes {
					free.Add(n)
				}
			}
			running = still
			body, _ := json.Marshal(httpapi.CycleRequest{Now: vnow, Free: free.Indices()})
			var resp httpapi.CycleResponse
			t := time.Now()
			code := post(mgrClient, base+"/v1/cycle", int64(k), body, &resp)
			got := time.Now()
			rtt = append(rtt, ms(got.Sub(t)))
			if code != http.StatusOK {
				r.problem("%s: cycle %d answered %d", r.label(i), k, code)
				break
			}
			for _, d := range resp.Decisions {
				fj := byID[d.JobID]
				if fj == nil || fj.disposed {
					r.problem("%s: cycle %d launched job %d, which is not waiting", r.label(i), k, d.JobID)
					continue
				}
				fj.disposed, fj.launchV, fj.nodes = true, vnow, d.Nodes
				fj.finishV = vnow + workload.ActualRuntime(c, fj.job, d.Nodes)
				for _, n := range d.Nodes {
					free.Remove(n)
				}
				running = append(running, fj)
				fd.submitToLaunch.add(ms(got.Sub(start.Add(fj.due))))
				launched++
				disposed++
			}
			for _, id := range resp.Dropped {
				if fj := byID[id]; fj != nil && !fj.disposed {
					fj.disposed = true
					disposed++
				}
			}
			if genEnd.IsZero() {
				select {
				case <-genDone:
					genEnd = time.Now()
				default:
				}
			}
			if !genEnd.IsZero() && (disposed >= accepted.Load() || time.Since(genEnd) > r.sc.frontdoorDrain) {
				break
			}
		}
		<-genDone
		fd.wall += time.Since(start)
		for _, x := range rtts {
			fd.submitRTT.add(x)
		}
		for _, x := range late {
			fd.genLate.add(x)
		}
	})
	srv.Close()
	<-served
	genClient.CloseIdleConnections()
	mgrClient.CloseIdleConnections()

	// On this workload an op is a submitted job, which fails when the daemon
	// refused it or never launched or dropped it; busy time is handler time;
	// and a cycle is the round trip the node manager saw.
	failed := int(submitFailed.Load())
	for _, fj := range jobs {
		if !fj.ackAt.IsZero() && !fj.disposed {
			failed++
		}
	}
	r.absorb(i, rp, p, core.SolveStats{})
	rp.cycles, rp.busy, rp.disposed, rp.pending = rtt, time.Duration(hp.busyNS.Load()), p.disposed, p.pendingSum
	r.ops += len(jobs)
	r.failed += failed + p.failedOps
	fd.launched += launched
	fd.requests += hp.requests.Load()
	fd.rejected429 += hp.rejected429.Load()
	fd.errors5xx += hp.errors5xx.Load()

	for _, fj := range jobs {
		j := fj.job
		switch {
		case j.Class == workload.SLO:
			r.sloAll++
			if fj.launchV >= 0 && fj.finishV <= j.Deadline {
				r.sloMet++
			}
		case fj.launchV >= 0:
			r.beDone++
			r.beLatSum += float64(fj.finishV - j.Submit)
		}
	}
	if r.rec != nil {
		r.frontdoorSpans(spanFrom, p, jobs)
		r.replayAdmission(c, all[:len(jobs)])
	}
	return nil
}

// frontdoorSpans reduces this repetition's request spans to handler-time samples.
func (r *run) frontdoorSpans(from int, p *probe, jobs []*fdJob) {
	spans := r.rec.spans[from:]
	// Parent indices are absolute; shift them so selfTimes can work on the
	// repetition's slice.
	local := make([]span, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			s.parent -= from
		}
		local[i] = s
	}
	self := selfTimes(local)
	fd := &r.fd
	for i, s := range local {
		switch s.name {
		case "httpapi.submit":
			fd.submitHandlerUS.add(float64(s.dur()) / 1e3)
		case "httpapi.completions":
			fd.completeHandlerUS.add(float64(s.dur()) / 1e3)
		case "httpapi.cycle":
			fd.cycleHandlerSelf.add(float64(self[i]) / 1e6)
		}
	}
	for _, fj := range jobs {
		if at, ok := p.submitAt[fj.job.ID]; ok && !fj.ackAt.IsZero() {
			fd.queueWait.add(ms(at.Sub(fj.ackAt)))
		}
	}
}
