package main

import (
	"fmt"
	"sort"

	"tetrisched/internal/bitset"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// oracle checks every CycleResult from the outside — it knows only what the
// harness handed the scheduler and what came back — and folds the launch
// sequence into a hash, so that two runs of the same inputs can be compared
// without keeping either schedule.
//
// It keeps the harness's mirror of the scheduler's books: which jobs are
// pending (submitted, not yet launched or dropped) and which are running on
// which nodes.
type oracle struct {
	pending    map[int]*workload.Job
	running    map[int]launch
	claimed    *bitset.Set // scratch: nodes handed out earlier in this cycle
	hash       uint64
	violations []string
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// launch is one running job as the harness saw it start.
type launch struct {
	job   *workload.Job
	nodes []int
	at    int64
}

func newOracle(universe int) *oracle {
	return &oracle{
		pending: make(map[int]*workload.Job),
		running: make(map[int]launch),
		claimed: bitset.New(universe),
		hash:    fnvOffset,
	}
}

func (o *oracle) mix(v int64) {
	for i := 0; i < 8; i++ {
		o.hash ^= uint64(v>>(8*i)) & 0xff
		o.hash *= fnvPrime
	}
}

func (o *oracle) fail(format string, args ...interface{}) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func (o *oracle) submit(j *workload.Job) { o.pending[j.ID] = j }

// finished handles a completion, and a failure kill, which the simulator
// reports the same way before resubmitting the job.
func (o *oracle) finished(j *workload.Job) { delete(o.running, j.ID) }

// check validates one cycle's result against the free set the scheduler was
// given, updates the mirror, and extends the schedule hash. It reports
// whether the cycle was clean.
func (o *oracle) check(now int64, free *bitset.Set, cr *sim.CycleResult) bool {
	before := len(o.violations)
	for _, j := range cr.Preempted {
		l, ok := o.running[j.ID]
		if !ok {
			o.fail("t=%d: preempted job %d is not running", now, j.ID)
			continue
		}
		// The scheduler re-queues its victims itself and may reuse their
		// nodes in this same cycle.
		for _, n := range l.nodes {
			free.Add(n)
		}
		delete(o.running, j.ID)
		o.pending[j.ID] = j
		o.mix(-1)
		o.mix(int64(j.ID))
	}
	o.claimed.Clear()
	for _, d := range cr.Decisions {
		id := d.Job.ID
		if _, ok := o.pending[id]; !ok {
			o.fail("t=%d: launched job %d was not pending", now, id)
		}
		if lo, hi := d.Job.WidthRange(); len(d.Nodes) < lo || len(d.Nodes) > hi {
			o.fail("t=%d: job %d got %d nodes, wants [%d,%d]", now, id, len(d.Nodes), lo, hi)
		}
		for _, n := range d.Nodes {
			switch {
			case n < 0 || n >= free.Cap() || !free.Contains(n):
				o.fail("t=%d: job %d placed on node %d, which is not free", now, id, n)
			case o.claimed.Contains(n):
				o.fail("t=%d: node %d handed to two jobs (second is %d)", now, n, id)
			default:
				o.claimed.Add(n)
			}
		}
		delete(o.pending, id)
		o.running[id] = launch{job: d.Job, nodes: d.Nodes, at: now}
		o.mix(int64(id))
		o.mix(now)
		sorted := append([]int(nil), d.Nodes...)
		sort.Ints(sorted)
		for _, n := range sorted {
			o.mix(int64(n))
		}
	}
	for _, j := range cr.Dropped {
		if _, ok := o.pending[j.ID]; !ok {
			o.fail("t=%d: dropped job %d was not pending", now, j.ID)
		}
		delete(o.pending, j.ID)
		o.mix(-2)
		o.mix(int64(j.ID))
		o.mix(now)
	}
	return len(o.violations) == before
}
