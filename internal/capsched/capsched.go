// Package capsched models the Rayon/CapacityScheduler stack that the paper
// compares against (§6.1): a reservation-following scheduler with container
// preemption enabled.
//
// Accepted SLO jobs start at their Rayon-planned start time, preempting
// best-effort work if needed to claim their guaranteed capacity. Everything
// else — best-effort jobs, SLO jobs whose reservations were rejected, and
// jobs whose reservations expired before they finished — funnels through a
// deadline-blind FIFO best-effort queue. Placement is heterogeneity-blind
// (arbitrary free nodes), which is exactly the handicap §7.2 measures.
package capsched

import (
	"sort"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/randx"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

type runInfo struct {
	job         *workload.Job
	nodes       []int
	start       int64
	guardedTill int64 // reservation end; 0 for best-effort placements
}

// preemptible reports whether the running job may be killed to honor a
// reservation: anything running without a live guarantee.
func (r *runInfo) preemptible(now int64) bool { return r.guardedTill <= now }

// Scheduler implements sim.Scheduler for the Rayon/CS baseline.
type Scheduler struct {
	c    *cluster.Cluster
	plan *rayon.Plan
	rng  *randx.Source

	reserved []*workload.Job // accepted-SLO jobs awaiting their planned start
	beQueue  []*workload.Job // FIFO: BE + SLO w/o reservation + transfers
	running  map[int]*runInfo
}

var _ sim.Scheduler = (*Scheduler)(nil)

// New creates the baseline scheduler. plan must be the same reservation plan
// the simulation driver admits jobs against. Container preemption is always
// on, as in the paper's evaluated configuration ("this gives a significant
// boost", §6.1).
func New(c *cluster.Cluster, plan *rayon.Plan) *Scheduler {
	return &Scheduler{c: c, plan: plan, rng: randx.New(1), running: make(map[int]*runInfo)}
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return "Rayon/CS" }

// Submit implements sim.Scheduler.
func (s *Scheduler) Submit(now int64, j *workload.Job) {
	if j.Class == workload.SLO && j.Reserved {
		s.reserved = append(s.reserved, j)
		sort.SliceStable(s.reserved, func(a, b int) bool {
			ra, rb := s.plan.Lookup(s.reserved[a].ID), s.plan.Lookup(s.reserved[b].ID)
			return plannedStart(ra) < plannedStart(rb)
		})
		return
	}
	s.beQueue = append(s.beQueue, j)
}

func plannedStart(r *rayon.Reservation) int64 {
	if r == nil {
		return 1 << 62
	}
	return r.Start
}

// JobFinished implements sim.Scheduler.
func (s *Scheduler) JobFinished(now int64, j *workload.Job) {
	delete(s.running, j.ID)
}

// Cycle implements sim.Scheduler.
func (s *Scheduler) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	var res sim.CycleResult
	working := free.Clone()

	// Launch reserved jobs whose planned start has arrived, preempting
	// unguarded work when the guaranteed capacity is not free.
	var stillWaiting []*workload.Job
	for _, j := range s.reserved {
		r := s.plan.Lookup(j.ID)
		if r == nil || r.End <= now {
			// Reservation lapsed before the job could start: transfer to the
			// best-effort queue (its deadline information is lost).
			s.beQueue = append(s.beQueue, j)
			continue
		}
		if r.Start > now {
			stillWaiting = append(stillWaiting, j)
			continue
		}
		if working.Count() < j.K {
			s.preemptFor(now, j.K-working.Count(), working, &res)
		}
		if working.Count() < j.K {
			stillWaiting = append(stillWaiting, j) // retry next cycle
			continue
		}
		nodes := s.takeNodes(working, j.K)
		res.Decisions = append(res.Decisions, sim.Decision{Job: j, Nodes: nodes})
		s.running[j.ID] = &runInfo{job: j, nodes: nodes, start: now, guardedTill: r.End}
	}
	s.reserved = stillWaiting

	// Best-effort FIFO: strictly in order, no preemption, no deadline
	// awareness.
	for len(s.beQueue) > 0 {
		j := s.beQueue[0]
		if working.Count() < j.K {
			break // head-of-line blocking, as in a FIFO capacity queue
		}
		nodes := s.takeNodes(working, j.K)
		res.Decisions = append(res.Decisions, sim.Decision{Job: j, Nodes: nodes})
		s.running[j.ID] = &runInfo{job: j, nodes: nodes, start: now}
		s.beQueue = s.beQueue[1:]
	}
	return res
}

// preemptFor kills unguarded running jobs, most recently started first,
// until `need` nodes have been reclaimed. Preempted jobs lose all progress
// and rejoin the best-effort queue.
func (s *Scheduler) preemptFor(now int64, need int, working *bitset.Set, res *sim.CycleResult) {
	var victims []*runInfo
	for _, r := range s.running {
		if r.preemptible(now) {
			victims = append(victims, r)
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].start != victims[b].start {
			return victims[a].start > victims[b].start // youngest first
		}
		return victims[a].job.ID > victims[b].job.ID
	})
	for _, v := range victims {
		if need <= 0 {
			return
		}
		res.Preempted = append(res.Preempted, v.job)
		delete(s.running, v.job.ID)
		for _, n := range v.nodes {
			working.Add(n)
		}
		need -= len(v.nodes)
		s.beQueue = append(s.beQueue, v.job)
	}
}

// takeNodes removes and returns k arbitrary free nodes — pseudo-random with
// a fixed seed, modeling heterogeneity-blind placement without the
// systematic (lucky or unlucky) structure a deterministic scan would add.
func (s *Scheduler) takeNodes(working *bitset.Set, k int) []int {
	candidates := working.Indices()
	s.rng.Shuffle(candidates)
	nodes := candidates[:k]
	for _, n := range nodes {
		working.Remove(n)
	}
	return nodes
}

// QueueLengths reports (reserved, best-effort) queue lengths for tests.
func (s *Scheduler) QueueLengths() (int, int) { return len(s.reserved), len(s.beQueue) }
