// Package rayon implements a Rayon-style reservation system (Curino et al.,
// SoCC'14): the admission-control frontend that TetriSched runs in tandem
// with (§2.1). An SLO job asks for k nodes for its estimated runtime between
// its arrival and its deadline (RDL's Window(s, f, Atom(k, gang, dur))), and
// the plan either guarantees them somewhere inside the window or rejects the
// job, which then runs as "SLO without reservation".
//
// The plan tracks reserved capacity per discretized time slice and admits
// greedily at the earliest feasible start, which is how Rayon's default
// greedy agent behaves. The CapacityScheduler baseline follows these planned
// start times; TetriSched only uses the accept/reject signal and the
// deadline/estimate information.
package rayon

import (
	"fmt"
)

// Reservation is an accepted capacity guarantee: K nodes during [Start, End).
type Reservation struct {
	JobID int
	K     int
	Start int64 // absolute seconds, quantized to the plan's quantum
	End   int64
	freed bool
}

// Plan is the cluster's reservation calendar.
type Plan struct {
	capacity int
	quantum  int64
	// used[t-base] is the node count reserved in slice t, for every slice
	// from the first one reserved and not yet forgotten to the last; at reads
	// 0 elsewhere.
	used []int
	base int64
	// floor is the first slice not forgotten (0 until Forget): no reservation
	// starts, and no release frees capacity, before it. base ≥ floor while
	// used is not empty.
	floor    int64
	accepted map[int]*Reservation
}

// NewPlan creates a plan for a cluster of capacity nodes with the given
// time quantum (seconds).
func NewPlan(capacity int, quantum int64) *Plan {
	if capacity <= 0 || quantum <= 0 {
		panic("rayon: capacity and quantum must be positive")
	}
	return &Plan{
		capacity: capacity,
		quantum:  quantum,
		accepted: make(map[int]*Reservation),
	}
}

// Quantum returns the plan's time quantum in seconds.
func (p *Plan) Quantum() int64 { return p.quantum }

// Admit attempts to reserve k nodes for estDur seconds within
// [arrival, deadline], scanning for the earliest feasible start in a slice not
// forgotten. It returns the reservation, or nil if the request must be
// rejected.
func (p *Plan) Admit(jobID int, arrival, deadline int64, k int, estDur int64) *Reservation {
	if k <= 0 || k > p.capacity || estDur <= 0 {
		return nil
	}
	durSlices := ceilDiv(estDur, p.quantum)
	lastStart := deadline/p.quantum - durSlices
	for s := max(ceilDiv(arrival, p.quantum), p.floor); s <= lastStart; {
		if t, ok := p.overload(s, s+durSlices, p.capacity-k); ok {
			// Every start in (s, t] covers slice t too.
			s = t + 1
			continue
		}
		p.grow(s, s+durSlices)
		for i := s - p.base; i < s-p.base+durSlices; i++ {
			p.used[i] += k
		}
		r := &Reservation{JobID: jobID, K: k, Start: s * p.quantum, End: (s + durSlices) * p.quantum}
		p.accepted[jobID] = r
		return r
	}
	return nil
}

// ceilDiv is ⌈a/q⌉ for a ≥ 0: Go's truncated quotient, plus one if q does not
// divide a.
func ceilDiv(a, q int64) int64 {
	if a%q != 0 {
		return a/q + 1
	}
	return a / q
}

// Forget drops every slice that ends by time t ≥ 0: the caller admits nothing
// that arrives, and releases nothing, before t. A forgotten slice reads 0, a
// later Admit reserves nothing in it and a Release frees nothing there, so the
// calendar spans only the slices from t to the end of the last reservation.
// Forgetting is never undone: an earlier t than before changes nothing.
func (p *Plan) Forget(t int64) {
	floor := t / p.quantum
	if floor <= p.floor {
		return
	}
	p.floor = floor
	switch drop := floor - p.base; {
	case drop >= int64(len(p.used)):
		p.used = nil
	case drop > 0:
		p.used, p.base = p.used[drop:], floor
	}
}

// overload returns the first slice in [from, to) with more than free nodes
// reserved. Slices outside used hold none, and free is never negative.
func (p *Plan) overload(from, to int64, free int) (int64, bool) {
	lo, hi := max(from-p.base, 0), min(to-p.base, int64(len(p.used)))
	for i := lo; i < hi; i++ {
		if p.used[i] > free {
			return p.base + i, true
		}
	}
	return 0, false
}

// grow extends used to cover the slices [from, to), at either end.
func (p *Plan) grow(from, to int64) {
	if len(p.used) == 0 {
		p.used, p.base = make([]int, to-from), from
		return
	}
	if from < p.base {
		used := make([]int, p.base-from+int64(len(p.used)))
		copy(used[p.base-from:], p.used)
		p.used, p.base = used, from
	}
	if n := to - p.base - int64(len(p.used)); n > 0 {
		p.used = append(p.used, make([]int, n)...)
	}
}

// at returns the node count reserved in slice t.
func (p *Plan) at(t int64) int {
	if i := t - p.base; i >= 0 && i < int64(len(p.used)) {
		return p.used[i]
	}
	return 0
}

// Release frees the remainder of a reservation from time `at` onward, e.g.
// when the job completes before its reservation ends; forgotten slices stay
// forgotten. Releasing twice is a no-op.
func (p *Plan) Release(r *Reservation, at int64) {
	if r == nil || r.freed {
		return
	}
	r.freed = true
	from := max(ceilDiv(at, p.quantum), r.Start/p.quantum, p.floor)
	for t := from; t < r.End/p.quantum; t++ {
		p.used[t-p.base] -= r.K
		if p.used[t-p.base] < 0 {
			panic(fmt.Sprintf("rayon: negative reserved capacity at slice %d", t))
		}
	}
	delete(p.accepted, r.JobID)
}

// Reserved returns the reserved node count for the slice containing time t.
func (p *Plan) Reserved(t int64) int { return p.at(t / p.quantum) }

// Lookup returns the live reservation for a job, if any.
func (p *Plan) Lookup(jobID int) *Reservation { return p.accepted[jobID] }

// MaxReserved returns the maximum reserved capacity over [from, to); used by
// tests to verify the plan never overcommits.
func (p *Plan) MaxReserved(from, to int64) int {
	mx, end := 0, ceilDiv(to, p.quantum)
	for s := from / p.quantum; s < end; s++ {
		mx = max(mx, p.at(s))
	}
	return mx
}
