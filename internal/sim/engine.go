// Package sim provides the discrete-event cluster simulator that stands in
// for the paper's 256-node YARN testbed: a deterministic virtual-time event
// engine, ground-truth node occupancy, and a driver that runs a workload
// through any Scheduler implementation while collecting the paper's success
// metrics (SLO attainment by category, best-effort latency, cycle/solver
// latency).
package sim

import (
	"container/heap"
)

// Engine is a deterministic discrete-event executor over virtual time in
// seconds. Events at equal times fire in scheduling order.
type Engine struct {
	now int64
	seq int64
	pq  eventHeap
}

type event struct {
	at  int64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewEngine returns an engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn to run at virtual time t (≥ now).
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		t = e.now
	}
	heap.Push(&e.pq, event{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

// Step runs the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if e.pq.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	e.now = ev.at
	ev.fn()
	return true
}
