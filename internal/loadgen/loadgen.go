// Package loadgen drives the tetrischedd front door (POST /v1/submit) with
// sustained batched job submissions and measures what the admission path
// does under pressure: throughput, admission latency percentiles, and the
// backpressure (429) rate.
//
// Two drive modes:
//
//   - closed loop (Rate == 0): Workers goroutines each keep exactly one
//     request in flight — submit a batch, wait, repeat. Throughput floats
//     to whatever the daemon sustains; latency stays honest because there
//     is no coordinated-omission queue on the client side.
//   - open loop (Rate > 0): batches are dispatched on a fixed schedule of
//     Rate jobs/sec regardless of response times, up to Workers in-flight
//     requests; dispatches that find every worker busy are counted as
//     Missed rather than silently queued, so overload is visible instead
//     of being absorbed into client-side wait time.
//
// An optional cycle driver posts /v1/cycle every CycleEvery so the daemon's
// ingress queue drains while the generator runs; without it a bounded queue
// saturates and the run measures pure reject throughput.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes one load-generation run.
type Config struct {
	BaseURL string   // daemon address, e.g. http://127.0.0.1:7140
	Workers int      // concurrent in-flight requests (default 8)
	Rate    float64  // open-loop target in jobs/sec; 0 = closed loop
	Batch   int      // jobs per submit request (default 64)
	Tenants []string // round-robin tenant names (default ["default"])
	MaxJobs int64    // stop after this many jobs submitted (0 = until Duration)

	Duration   time.Duration // run length (default 2s; ignored when MaxJobs > 0 hits first)
	CycleEvery time.Duration // drive POST /v1/cycle at this period (0 = never)
}

// Result is what one run measured.
type Result struct {
	Elapsed  time.Duration
	Requests int64 // submit requests completed
	Jobs     int64 // jobs submitted (accepted + rejected + errored)
	Accepted int64 // jobs admitted to the ingress queue (202)
	Rejected int64 // jobs refused with backpressure (429)
	Missed   int64 // open-loop dispatches skipped because all workers were busy
	Err4xx   int64 // requests answered 4xx other than 429
	Err5xx   int64 // requests answered 5xx
	ErrNet   int64 // transport failures

	P50, P90, P99 time.Duration // submit request latency percentiles
}

// OfferedRate is the jobs/sec the generator pushed at the daemon.
func (r Result) OfferedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Jobs) / r.Elapsed.Seconds()
}

// AcceptedRate is the jobs/sec the daemon admitted.
func (r Result) AcceptedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Accepted) / r.Elapsed.Seconds()
}

// RejectRate is the fraction of submitted jobs refused with 429.
func (r Result) RejectRate() float64 {
	if r.Jobs == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(r.Jobs)
}

// ErrorRate is the fraction of requests that failed outright (non-202,
// non-429 responses and transport errors).
func (r Result) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Err4xx+r.Err5xx+r.ErrNet) / float64(r.Requests)
}

// String renders the run summary for humans.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d jobs in %v (%.0f jobs/sec offered, %.0f accepted)\n",
		r.Jobs, r.Elapsed.Round(time.Millisecond), r.OfferedRate(), r.AcceptedRate())
	fmt.Fprintf(&b, "  requests: %d  accepted: %d  rejected(429): %d  4xx: %d  5xx: %d  net: %d  missed: %d\n",
		r.Requests, r.Accepted, r.Rejected, r.Err4xx, r.Err5xx, r.ErrNet, r.Missed)
	fmt.Fprintf(&b, "  latency: p50 %v  p90 %v  p99 %v  reject-rate %.3f  error-rate %.3f",
		r.P50, r.P90, r.P99, r.RejectRate(), r.ErrorRate())
	return b.String()
}

// worker holds the per-goroutine state: a reused body buffer and a private
// latency sample slice, merged only after the run.
type worker struct {
	body []byte
	lat  []time.Duration

	requests, jobs, accepted, rejected int64
	err4xx, err5xx, errNet             int64
}

// gen is the shared run state.
type gen struct {
	cfg    Config
	client *http.Client
	nextID int64 // first job ID of the next batch; IDs run from 0 up
	jobs   int64 // jobs submitted so far (atomic), for MaxJobs
}

// Run executes one load-generation run and blocks until it finishes. The
// context cancels the run early; the partial result is still returned.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.BaseURL == "" {
		return Result{}, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []string{"default"}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	g := &gen{cfg: cfg, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Workers * 2,
		MaxIdleConnsPerHost: cfg.Workers * 2,
	}}}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var cycleWG sync.WaitGroup
	if cfg.CycleEvery > 0 {
		cycleWG.Add(1)
		go func() {
			defer cycleWG.Done()
			g.driveCycles(ctx)
		}()
	}

	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = &worker{}
	}

	start := time.Now()
	var missed int64
	if cfg.Rate > 0 {
		missed = g.openLoop(ctx, workers)
	} else {
		g.closedLoop(ctx, workers)
	}
	elapsed := time.Since(start)
	cancel()
	cycleWG.Wait()

	res := Result{Elapsed: elapsed, Missed: missed}
	var lat []time.Duration
	for _, w := range workers {
		res.Requests += w.requests
		res.Jobs += w.jobs
		res.Accepted += w.accepted
		res.Rejected += w.rejected
		res.Err4xx += w.err4xx
		res.Err5xx += w.err5xx
		res.ErrNet += w.errNet
		lat = append(lat, w.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50 = percentile(lat, 0.50)
	res.P90 = percentile(lat, 0.90)
	res.P99 = percentile(lat, 0.99)
	return res, nil
}

// closedLoop keeps every worker saturated until the deadline or job quota.
func (g *gen) closedLoop(ctx context.Context, workers []*worker) {
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			tenant := g.cfg.Tenants[i%len(g.cfg.Tenants)]
			for ctx.Err() == nil {
				n := g.claim()
				if n == 0 {
					return
				}
				g.submit(w, tenant, n)
			}
		}(i, w)
	}
	wg.Wait()
}

// openLoop dispatches one batch every Batch/Rate seconds to an idle worker;
// when all workers are busy the dispatch is dropped and counted.
func (g *gen) openLoop(ctx context.Context, workers []*worker) (missed int64) {
	interval := time.Duration(float64(g.cfg.Batch) / g.cfg.Rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	idle := make(chan *worker, len(workers))
	for _, w := range workers {
		idle <- w
	}
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	round := 0
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return missed
		case <-tick.C:
			n := g.claim()
			if n == 0 {
				wg.Wait()
				return missed
			}
			select {
			case w := <-idle:
				round++
				tenant := g.cfg.Tenants[round%len(g.cfg.Tenants)]
				wg.Add(1)
				go func() {
					defer wg.Done()
					g.submit(w, tenant, n)
					idle <- w
				}()
			default:
				missed += int64(n)
				atomic.AddInt64(&g.jobs, -int64(n)) // give the quota back
			}
		}
	}
}

// claim reserves up to one batch of jobs against MaxJobs; 0 means the quota
// is exhausted and the caller should stop.
func (g *gen) claim() int {
	n := g.cfg.Batch
	if g.cfg.MaxJobs <= 0 {
		return n
	}
	total := atomic.AddInt64(&g.jobs, int64(n))
	if over := total - g.cfg.MaxJobs; over > 0 {
		n -= int(over)
		if n <= 0 {
			return 0
		}
	}
	return n
}

// submit posts one batch of n jobs for tenant and records the outcome.
func (g *gen) submit(w *worker, tenant string, n int) {
	id0 := atomic.AddInt64(&g.nextID, int64(n)) - int64(n)
	w.body = appendBatch(w.body[:0], tenant, id0, n)
	t0 := time.Now()
	resp, err := g.client.Post(g.cfg.BaseURL+"/v1/submit", "application/json", bytes.NewReader(w.body))
	lat := time.Since(t0)
	w.requests++
	w.jobs += int64(n)
	w.lat = append(w.lat, lat)
	if err != nil {
		w.errNet++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		w.accepted += int64(n)
	case resp.StatusCode == http.StatusTooManyRequests:
		w.rejected += int64(n)
	case resp.StatusCode >= 500:
		w.err5xx++
	default:
		w.err4xx++
	}
}

// driveCycles posts /v1/cycle on a fixed period so the ingress queue keeps
// draining into the scheduler while load runs.
func (g *gen) driveCycles(ctx context.Context) {
	tick := time.NewTicker(g.cfg.CycleEvery)
	defer tick.Stop()
	now := int64(0)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			now++
			body := strings.NewReader(`{"now":` + strconv.FormatInt(now, 10) + `,"free":[]}`)
			resp, err := g.client.Post(g.cfg.BaseURL+"/v1/cycle", "application/json", body)
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// appendBatch renders a JSON array of n BE jobs into buf without fmt or
// encoding/json — the generator must not become the bottleneck it measures.
func appendBatch(buf []byte, tenant string, id0 int64, n int) []byte {
	buf = append(buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, id0+int64(i), 10)
		buf = append(buf, `,"tenant":`...)
		buf = strconv.AppendQuote(buf, tenant)
		buf = append(buf, `,"class":"BE","type":"Unconstrained","k":1,"base_runtime":30,"slowdown":1}`...)
	}
	return append(buf, ']')
}

// percentile reads the q-quantile from sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
