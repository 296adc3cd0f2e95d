package httpapi

// Multi-tenant admission: the daemon's production front door. Jobs submitted
// through POST /v1/submit do not go straight into the scheduler — they land
// in a bounded ingress queue with per-tenant accounting and are drained into
// the scheduler's pending queue by a weighted-fair dequeue at cycle time.
// The design follows the arktos global-scheduler admission menu (§2.5.7
// "priority and fair scheduling to avoid attack"): per-tenant quotas bound
// how much queue an adversarial tenant can occupy, weights set the share of
// scheduler admissions each tenant receives under saturation, and the total
// queue bound turns overload into explicit 429 + Retry-After backpressure
// instead of unbounded memory.

import (
	"math"
	"sort"
	"sync"
	"time"

	"tetrisched/internal/telemetry"
	"tetrisched/internal/workload"
)

// DefaultTenant is the tenant name assumed when a submission carries none.
const DefaultTenant = "default"

// TenantConfig sets one tenant's admission parameters.
type TenantConfig struct {
	Name string `json:"name"`
	// Weight is the tenant's fair-share weight: under saturating load,
	// admitted-job shares converge to the weight ratio. Values <= 0 mean 1.
	Weight float64 `json:"weight"`
	// Quota bounds how many of the tenant's jobs may sit in the ingress
	// queue at once. 0 rejects every submission from the tenant (hard
	// lockout); negative means bounded only by the global queue size.
	Quota int `json:"quota"`
	// Rate is the tenant's sustained submission rate in jobs/second,
	// enforced by a token bucket on /v1/submit: a batch that exceeds the
	// available tokens is rejected whole with 429 and a Retry-After sized to
	// the deficit. <= 0 (the default) disables rate limiting.
	Rate float64 `json:"rate"`
	// RateBurst is the token bucket's capacity — the largest instantaneous
	// burst the tenant may submit after idling. <= 0 defaults to
	// max(1, ceil(Rate)). Ignored unless Rate > 0.
	RateBurst int `json:"burst"`
}

// AdmissionConfig configures the ingress queue.
type AdmissionConfig struct {
	// MaxQueue bounds the total number of queued jobs across all tenants;
	// <= 0 selects the default (65536). Submissions that would exceed it are
	// rejected with 429.
	MaxQueue int
	// Burst caps how many queued jobs one scheduling cycle drains into the
	// scheduler; <= 0 selects the default (1024).
	Burst int
	// Tenants lists explicitly configured tenants; any other tenant name
	// gets defaultWeight and defaultQuota.
	Tenants []TenantConfig
}

const (
	// defaultWeight is the weight of an unlisted tenant, and of a listed one
	// whose weight is <= 0.
	defaultWeight = 1
	// defaultQuota is the quota of an unlisted tenant: unlimited, so lockout
	// must be explicit per tenant.
	defaultQuota = -1
	// retryAfterSeconds is the advisory Retry-After of a 429 that carries no
	// deficit-sized one of its own.
	retryAfterSeconds = 1
)

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 65536
	}
	if c.Burst <= 0 {
		c.Burst = 1024
	}
	return c
}

// rejectReason classifies why admission refused a submission.
type rejectReason int

const (
	rejectNone    rejectReason = iota
	rejectFull                 // global queue at MaxQueue
	rejectQuota                // tenant at its quota (or quota 0: locked out)
	rejectRate                 // tenant's token bucket exhausted
	rejectInvalid              // duplicate job ID in batch or ingress queue
)

func (r rejectReason) String() string {
	switch r {
	case rejectFull:
		return "queue_full"
	case rejectQuota:
		return "tenant_quota"
	case rejectRate:
		return "tenant_rate"
	case rejectInvalid:
		return "invalid"
	}
	return "none"
}

// tenantState is one tenant's queue and accounting.
type tenantState struct {
	name   string
	weight float64
	quota  int // < 0: unlimited

	queue []*workload.Job // FIFO; queue[head:] are live
	head  int

	// vt is the tenant's virtual time (jobs admitted / weight) for
	// start-time fair queuing; dequeue always serves the smallest vt.
	vt float64

	// Token bucket (rate <= 0: unlimited). tokens refills at rate/second up
	// to burstCap; a batch spends one token per job, atomically.
	rate     float64
	burstCap float64
	tokens   float64
	lastFill time.Time

	// Batch-scan scratch: marks this tenant as seen in the current
	// validation pass without a per-request map (batchEpoch is compared to
	// the admission-wide epoch counter).
	batchEpoch uint64
	batchCount int

	// Counters (see docs/OBSERVABILITY.md).
	enqueued      uint64 // jobs accepted into the ingress queue
	admitted      uint64 // jobs drained into the scheduler
	rejectedFull  uint64
	rejectedQuota uint64
	rejectedRate  uint64 // rejected by the tenant's token bucket
	rejectedDup   uint64 // dropped at drain: ID already known to the scheduler
}

func (t *tenantState) depth() int { return len(t.queue) - t.head }

func (t *tenantState) push(j *workload.Job) {
	t.queue = append(t.queue, j)
}

func (t *tenantState) pop() *workload.Job {
	j := t.queue[t.head]
	t.queue[t.head] = nil
	t.head++
	// Compact once the dead prefix dominates so the backing array cannot
	// grow without bound across enqueue/dequeue cycles.
	if t.head > 64 && t.head*2 >= len(t.queue) {
		n := copy(t.queue, t.queue[t.head:])
		t.queue = t.queue[:n]
		t.head = 0
	}
	return j
}

// admitLatencyBuckets are the /metrics histogram bounds for submit-request
// handling latency, in seconds. The hot path is tens of microseconds; the
// tail covers lock convoys under saturation.
var admitLatencyBuckets = []float64{25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3}

// admission is the ingress queue. It has its own mutex so the submit hot
// path never contends with the scheduler lock (s.mu), which /v1/cycle holds
// for the full MILP solve; the two locks are never held together except in
// drain's caller (which takes adm.mu strictly before s.mu is acquired).
type admission struct {
	mu      sync.Mutex
	cfg     AdmissionConfig
	tenants map[string]*tenantState
	queued  map[int]struct{} // job IDs currently in the ingress queue
	total   int              // queued jobs across all tenants
	seq     int64            // monotone admission sequence, stamped at drain
	vtFloor float64          // fair-queuing floor: vt of the last-served tenant
	epoch   uint64           // batch-validation epoch (see tenantState.batchEpoch)
	touched []*tenantState   // reusable scratch for per-batch tenant groups
	now     func() time.Time // clock; swapped out by token-bucket tests
	// latency is the submit-request handling latency.
	latency *telemetry.Histogram
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.withDefaults()
	a := &admission{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
		queued:  make(map[int]struct{}),
		latency: telemetry.NewHistogram(admitLatencyBuckets),
		now:     time.Now,
	}
	for _, tc := range cfg.Tenants {
		a.tenant(tc.Name).configure(tc)
	}
	return a
}

func (t *tenantState) configure(tc TenantConfig) {
	t.weight = tc.Weight
	if t.weight <= 0 {
		t.weight = defaultWeight
	}
	t.quota = tc.Quota
	t.rate = tc.Rate
	if t.rate > 0 {
		t.burstCap = float64(tc.RateBurst)
		if tc.RateBurst <= 0 {
			t.burstCap = math.Max(1, math.Ceil(t.rate))
		}
		t.tokens = t.burstCap // a fresh bucket starts full
		t.lastFill = time.Time{}
	}
}

// reconfigure applies a new tenant list to a live admission door. Unlike
// construction it preserves accrued state: queued jobs, fair-queuing virtual
// times, and token balances all survive — limits move, history does not.
// Tenants dropped from the list fall back to the door defaults. Without the
// balance carry-over a reload would hand every rated tenant a fresh full
// bucket, so a tenant could launder unlimited throughput through repeated
// config reloads; and resetting vt would let it replay bursts the fair
// dequeue already charged it for.
func (a *admission) reconfigure(tenants []TenantConfig) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg.Tenants = tenants
	listed := make(map[string]bool, len(tenants))
	for _, tc := range tenants {
		name := tc.Name
		if name == "" {
			name = DefaultTenant
		}
		listed[name] = true
		a.tenant(name).reconfigure(tc)
	}
	for name, ts := range a.tenants {
		if !listed[name] {
			ts.weight = defaultWeight
			ts.quota = defaultQuota
			ts.rate = 0
		}
	}
}

// reconfigure is configure for a tenant that already has history: the new
// limits apply, but a still-rated tenant keeps its spent token balance
// (clamped to the new burst cap) and refill anchor instead of starting a
// fresh full bucket. vt is untouched — the reactivation clamp in tryEnqueue
// already prevents idle credit banking, reload or not.
func (t *tenantState) reconfigure(tc TenantConfig) {
	hadRate := t.rate > 0
	tokens, lastFill := t.tokens, t.lastFill
	t.configure(tc)
	if t.rate > 0 && hadRate {
		t.tokens = math.Min(tokens, t.burstCap)
		t.lastFill = lastFill
	}
}

// refill credits the token bucket for the time elapsed since the last refill.
// The first call after configuration only anchors the clock — the bucket was
// created full.
func (t *tenantState) refill(now time.Time) {
	if t.lastFill.IsZero() {
		t.lastFill = now
		return
	}
	if dt := now.Sub(t.lastFill).Seconds(); dt > 0 {
		t.tokens = math.Min(t.burstCap, t.tokens+dt*t.rate)
		t.lastFill = now
	}
}

// tenant returns (creating if needed) the state for name. Callers hold a.mu
// (or are in single-threaded setup).
func (a *admission) tenant(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	ts, ok := a.tenants[name]
	if !ok {
		ts = &tenantState{name: name, weight: defaultWeight, quota: defaultQuota}
		a.tenants[name] = ts
	}
	return ts
}

// enqueueOutcome reports one tryEnqueue call's result.
type enqueueOutcome struct {
	reason rejectReason
	// tenant is the tenant that triggered a quota or rate rejection (or the
	// sole tenant of a single-job enqueue).
	tenant string
	// badIndex is the batch index of the duplicate job on rejectInvalid.
	badIndex int
	// retryAfter overrides the advisory Retry-After seconds when > 0; a rate
	// rejection sizes it to when the bucket will have refilled enough.
	retryAfter int
}

// tryEnqueue atomically admits all jobs into the ingress queue or none of
// them: capacity, per-tenant quotas, and duplicate IDs (within the batch and
// against already-queued jobs) are all checked before the first job lands.
// Each job's Tenant field must already be normalized (non-empty).
func (a *admission) tryEnqueue(jobs []*workload.Job) enqueueOutcome {
	if len(jobs) == 0 {
		return enqueueOutcome{reason: rejectNone}
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	if a.total+len(jobs) > a.cfg.MaxQueue {
		for _, ts := range a.groupLocked(jobs) {
			ts.rejectedFull += uint64(ts.batchCount)
		}
		return enqueueOutcome{reason: rejectFull}
	}
	grouped := a.groupLocked(jobs)
	for _, ts := range grouped {
		if ts.quota == 0 || (ts.quota > 0 && ts.depth()+ts.batchCount > ts.quota) {
			for _, t2 := range grouped {
				t2.rejectedQuota += uint64(t2.batchCount)
			}
			return enqueueOutcome{reason: rejectQuota, tenant: ts.name}
		}
	}
	// Token buckets: refill every rated tenant the batch touches, then check
	// all of them before any token is spent — the batch is admitted or
	// rejected as a unit, like quota. Spending happens only after the dup
	// scan succeeds, so a 400 never burns the tenant's budget.
	var rateNow time.Time
	for _, ts := range grouped {
		if ts.rate <= 0 {
			continue
		}
		if rateNow.IsZero() {
			rateNow = a.now()
		}
		ts.refill(rateNow)
		if float64(ts.batchCount) > ts.tokens+1e-9 {
			for _, t2 := range grouped {
				t2.rejectedRate += uint64(t2.batchCount)
			}
			deficit := float64(ts.batchCount) - ts.tokens
			return enqueueOutcome{reason: rejectRate, tenant: ts.name, retryAfter: max(1, int(math.Ceil(deficit/ts.rate)))}
		}
	}
	// Dup scan: insert IDs as we go so in-batch duplicates collide too, and
	// roll back on failure — the single long-lived map does double duty
	// without per-request map allocation.
	for i, j := range jobs {
		if _, dup := a.queued[j.ID]; dup {
			for _, k := range jobs[:i] {
				delete(a.queued, k.ID)
			}
			return enqueueOutcome{reason: rejectInvalid, badIndex: i, tenant: j.Tenant}
		}
		a.queued[j.ID] = struct{}{}
	}
	for _, ts := range grouped {
		if ts.rate > 0 {
			ts.tokens = math.Max(0, ts.tokens-float64(ts.batchCount))
		}
	}
	for _, j := range jobs {
		ts := a.tenants[j.Tenant]
		if ts.depth() == 0 {
			// (Re)activation: inherit the fair-queuing floor so an idle
			// tenant cannot bank credit and then monopolize the dequeue.
			if ts.vt < a.vtFloor {
				ts.vt = a.vtFloor
			}
		}
		ts.push(j)
		ts.enqueued++
	}
	a.total += len(jobs)
	return enqueueOutcome{reason: rejectNone, tenant: jobs[0].Tenant}
}

// groupLocked tallies jobs per tenant into the tenants' batch-scratch fields
// and returns the touched tenant states (reused slice; valid until the next
// call). Caller holds a.mu.
func (a *admission) groupLocked(jobs []*workload.Job) []*tenantState {
	a.epoch++
	a.touched = a.touched[:0]
	for _, j := range jobs {
		ts := a.tenant(j.Tenant)
		if ts.batchEpoch != a.epoch {
			ts.batchEpoch = a.epoch
			ts.batchCount = 0
			a.touched = append(a.touched, ts)
		}
		ts.batchCount++
	}
	return a.touched
}

// drain removes up to max jobs from the ingress queue in weighted-fair order
// and stamps each with its admission sequence number. The returned slice is
// freshly allocated (the scheduler side retains the jobs anyway).
//
// Fairness is start-time fair queuing: each tenant carries a virtual time
// advanced by 1/weight per admitted job, and drain always serves the active
// tenant with the smallest virtual time. Under saturation the admitted-job
// shares converge to the weight ratio; an idle tenant's vt is floored on
// re-activation so bursts cannot claim retroactive credit.
func (a *admission) drain(max int) []*workload.Job {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.total == 0 || max <= 0 {
		return nil
	}
	if max > a.total {
		max = a.total
	}
	out := make([]*workload.Job, 0, max)
	for len(out) < max {
		var best *tenantState
		for _, ts := range a.tenants {
			if ts.depth() == 0 {
				continue
			}
			if best == nil || ts.vt < best.vt || (ts.vt == best.vt && ts.name < best.name) {
				best = ts
			}
		}
		if best == nil {
			break
		}
		a.vtFloor = best.vt
		j := best.pop()
		delete(a.queued, j.ID)
		a.seq++
		j.AdmitSeq = a.seq
		best.vt += 1 / best.weight
		best.admitted++
		a.total--
		out = append(out, j)
	}
	return out
}

// noteDupDrop records a job that survived enqueue but turned out to be a
// duplicate of an already-admitted ID at drain time (the scheduler-side
// check lives outside adm.mu so the submit path never touches s.mu).
func (a *admission) noteDupDrop(tenant string) {
	a.mu.Lock()
	a.tenant(tenant).rejectedDup++
	a.tenant(tenant).admitted--
	a.mu.Unlock()
}

func (a *admission) observeLatency(d time.Duration) {
	a.mu.Lock()
	a.latency.Observe(d.Seconds())
	a.mu.Unlock()
}

// advisoryRetry resolves one rejection's Retry-After seconds: the outcome's
// deficit-sized override when present, else retryAfterSeconds — each ≥ 1.
// Every 429 writer goes through here: an advisory of 0 tells clients to retry
// immediately, which under overload synchronizes the whole fleet into a retry
// stampede at exactly the moment the queue can least absorb one.
func (a *admission) advisoryRetry(out enqueueOutcome) int {
	if out.retryAfter > 0 {
		return out.retryAfter
	}
	return retryAfterSeconds
}

// TenantStatusMsg is one tenant's admission accounting in /v1/status.
type TenantStatusMsg struct {
	Name          string  `json:"name"`
	Weight        float64 `json:"weight"`
	Quota         int     `json:"quota"`
	Rate          float64 `json:"rate,omitempty"`
	RateBurst     float64 `json:"burst,omitempty"`
	Queued        int     `json:"queued"`
	Enqueued      uint64  `json:"enqueued"`
	Admitted      uint64  `json:"admitted"`
	RejectedFull  uint64  `json:"rejected_full"`
	RejectedQuota uint64  `json:"rejected_quota"`
	RejectedRate  uint64  `json:"rejected_rate"`
	RejectedDup   uint64  `json:"rejected_dup"`
}

// AdmissionStatusMsg is the admission block of /v1/status.
type AdmissionStatusMsg struct {
	Queued   int                  `json:"queued"`
	MaxQueue int                  `json:"max_queue"`
	Burst    int                  `json:"burst"`
	Tenants  []*TenantStatusMsg   `json:"tenants,omitempty"`
	Latency  *telemetry.Histogram `json:"-"` // submit-request latency, for /metrics only
}

// admissionMetrics and tenantMetrics name the admission status for /metrics,
// the tenant rows once per tenant under a tenant label; a row's key is the
// JSON key under which /v1/status shows the same value.
var admissionMetrics = []telemetry.Metric[AdmissionStatusMsg]{
	telemetry.Row("", "queued", "tetrisched_admission_queue_depth", "gauge", "Jobs in the ingress queue.", func(a *AdmissionStatusMsg) any { return a.Queued }),
	telemetry.Row("", "max_queue", "tetrisched_admission_queue_capacity", "gauge", "Ingress queue bound (-max-queue).", func(a *AdmissionStatusMsg) any { return a.MaxQueue }),
	telemetry.Row("", "", "tetrisched_admission_latency_seconds", "histogram", "POST /v1/submit handling wall-clock, decode plus admission verdict (buckets 25 us to 100 ms).", func(a *AdmissionStatusMsg) any { return a.Latency }),
}

var tenantMetrics = []telemetry.Metric[TenantStatusMsg]{
	telemetry.Row("", "queued", "tetrisched_admission_tenant_queued", "gauge", "Jobs a tenant has in the ingress queue.", func(t *TenantStatusMsg) any { return t.Queued }),
	telemetry.Row("", "enqueued", "tetrisched_admission_enqueued_total", "counter", "Jobs accepted into the ingress queue.", func(t *TenantStatusMsg) any { return t.Enqueued }),
	telemetry.Row("", "admitted", "tetrisched_admission_admitted_total", "counter", "Jobs drained into the scheduler by the weighted-fair dequeue.", func(t *TenantStatusMsg) any { return t.Admitted }),
	telemetry.Row("", "rejected_full", "tetrisched_admission_rejected_full_total", "counter", "Jobs rejected because the ingress queue was full (429).", func(t *TenantStatusMsg) any { return t.RejectedFull }),
	telemetry.Row("", "rejected_quota", "tetrisched_admission_rejected_quota_total", "counter", "Jobs rejected by tenant quota (429).", func(t *TenantStatusMsg) any { return t.RejectedQuota }),
	telemetry.Row("", "rejected_rate", "tetrisched_admission_rejected_rate_total", "counter", "Jobs rejected by the tenant's token-bucket rate limit (429).", func(t *TenantStatusMsg) any { return t.RejectedRate }),
	telemetry.Row("", "rejected_dup", "tetrisched_admission_rejected_dup_total", "counter", "Queued jobs dropped at drain as duplicates of admitted IDs.", func(t *TenantStatusMsg) any { return t.RejectedDup }),
}

// status copies the admission state out, tenants by name, for /v1/status and
// /metrics to render after the lock is dropped.
func (a *admission) status() *AdmissionStatusMsg {
	a.mu.Lock()
	defer a.mu.Unlock()
	msg := &AdmissionStatusMsg{Queued: a.total, MaxQueue: a.cfg.MaxQueue, Burst: a.cfg.Burst, Latency: a.latency.Clone()}
	for _, ts := range a.tenants {
		msg.Tenants = append(msg.Tenants, &TenantStatusMsg{
			Name: ts.name, Weight: ts.weight, Quota: ts.quota, Queued: ts.depth(),
			Rate: ts.rate, RateBurst: ts.burstCap,
			Enqueued: ts.enqueued, Admitted: ts.admitted,
			RejectedFull: ts.rejectedFull, RejectedQuota: ts.rejectedQuota,
			RejectedRate: ts.rejectedRate, RejectedDup: ts.rejectedDup,
		})
	}
	sort.Slice(msg.Tenants, func(i, j int) bool { return msg.Tenants[i].Name < msg.Tenants[j].Name })
	return msg
}
