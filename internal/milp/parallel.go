package milp

import (
	"container/heap"
	"sync"
	"time"
)

// Parallel branch-and-bound drivers.
//
// Two strategies share the serial search's node/incumbent logic:
//
//   - runAsync: a free-running worker pool over the shared best-bound heap.
//     Workers pop under a mutex, solve the node's LP relaxation on private
//     scratch state, then re-acquire the lock to publish incumbents and push
//     children. Fastest, but the explored tree depends on worker
//     interleaving, so equal-objective ties can resolve differently run to
//     run.
//
//   - runBatch (Options.Deterministic): synchronous rounds. Each round pops
//     up to Workers nodes in best-bound order (ties broken by node creation
//     sequence), evaluates their LPs concurrently, then applies the results
//     in pop order. The explored tree and all tie-breaks are independent of
//     goroutine scheduling, so repeated solves return byte-identical Values
//     (absent wall-clock limits).
//
// Both honor gap/time/node limits cooperatively: any worker that observes a
// limit raises the shared stop flag and wakes the others.

// nodeResult is the off-lock outcome of evaluating one branch-and-bound node.
type nodeResult struct {
	node      *bbNode
	dead      bool        // infeasible (or unbounded, impossible below a bounded root)
	abandoned bool        // the LP reached no verdict: deadline, iteration cap, numerical error
	obj       float64     // LP objective of the node relaxation
	integral  bool        // relaxation solved integral
	vals      []float64   // integral point (when integral)
	cand      []float64   // heuristic candidate to consider (may be nil)
	fracs     []fracVar   // fractional candidates (when !integral); branch selection
	snap      *basisState // node's optimal basis, shared by both children
}

// evalSlot is what one concurrent node evaluation works on, all of it private
// to that evaluation: the LP scratch, the bound box, the fractional-candidate
// list the result hands to the apply step, and the snapshot buffer the driver
// took for it (nil with warm starts disabled).
type evalSlot struct {
	sc     *simplexState
	lb, ub []float64
	fracs  []fracVar
	snap   *basisState
	primal primalBuf
}

func (s *search) newEvalSlot() evalSlot {
	return evalSlot{sc: s.ws.newScratch(s.p), lb: s.ws.floats.take(len(s.p.lb)), ub: s.ws.floats.take(len(s.p.ub)), primal: s.newPrimalBuf()}
}

// evalNode solves one node's LP relaxation on the slot and derives everything
// the shared-state apply step needs. It only reads search state that is fixed
// for the duration of the solve (model, p, opts, deadline, the node's
// ancestors), so it runs without the driver lock. idx is the node's 1-based
// processing index, used for the dive cadence.
func (s *search) evalNode(node *bbNode, e *evalSlot, idx int) nodeResult {
	s.box(node, e.lb, e.ub)
	st, x, err := s.solveNodeLP(e.sc, node, e.lb, e.ub)
	if err != nil || st == lpIterLimit {
		return nodeResult{node: node, abandoned: true}
	}
	if st != lpOptimal {
		return nodeResult{node: node, dead: true}
	}
	r := nodeResult{node: node, obj: s.model.ObjectiveValue(x[:len(s.model.Vars)])}
	if fr := firstFractional(s.model, x); fr < 0 {
		r.integral = true
		r.vals = roundIntegral(s.model, x[:len(s.model.Vars)])
		return r
	}
	r.snap = capture(e.sc, e.snap)
	// The search's workspace belongs to the driver goroutine, so a worker's
	// dive runs on fresh memory. The candidate is validated here, off the
	// lock; it stays in the slot until the apply step has looked at it.
	if cand := s.candidate(x, e.lb, e.ub, idx, &e.primal, nil, &e.sc.stats); cand != nil && s.model.IsFeasible(cand, 1e-6) {
		r.cand = cand
	}
	// Branch selection consults the shared pseudocost table, so it happens in
	// the apply step (under the driver lock); only the fractional candidates
	// are captured here, copied because x aliases the slot's scratch.
	e.fracs = gatherFractional(s.model, x, e.fracs)
	r.fracs = e.fracs
	return r
}

// conclude finishes an evaluated node under the driver lock (async) or between
// rounds (batch): the node has restored from its parent's basis, the result is
// published unless the search has stopped, and the slot's snapshot buffer goes
// back to the free list unless children now hold it.
func (s *search) conclude(r nodeResult, e *evalSlot, apply bool) {
	s.releaseWarm(r.node)
	if apply {
		s.applyResult(r)
	}
	s.settleSnap(e.snap)
	e.snap = nil
}

// applyResult publishes one evaluated node into the shared search state:
// incumbent updates and child creation. Callers must hold the driver lock
// (async) or apply results in deterministic order between rounds (batch).
func (s *search) applyResult(r nodeResult) {
	if r.abandoned {
		s.abandon(r.node)
		return
	}
	if r.dead {
		return
	}
	s.noteBranchOutcome(r.node, r.obj)
	// Re-check against the possibly-improved incumbent: another worker may
	// have published a better one while this node's LP was solving.
	if s.incumbent != nil && !s.better(r.obj, s.incObj) {
		return
	}
	if r.integral {
		o := s.model.ObjectiveValue(r.vals)
		if s.incumbent == nil || s.better(o, s.incObj) {
			s.incumbent, s.incObj = r.vals, o
		}
		return
	}
	if r.cand != nil {
		s.adopt(r.cand)
		if !s.better(r.obj, s.incObj) {
			return // the candidate itself closed this subtree
		}
	}
	bv, v := s.selectBranch(r.fracs)
	s.pushChildren(r.node, bv, v, r.obj, r.snap)
}

// runAsync is the free-running worker pool. Shared state (heap, incumbent,
// counters, bestBound) is guarded by mu; workers block on cond when the heap
// is momentarily empty but siblings are still expanding nodes.
//
// A worker may be expanding a node whose bound is weaker than the heap top,
// and its subtree stays unexplored if the search stops now — so the proven
// global bound, the gap-termination test, and the bound reported at limit
// stops must all fold in the bounds of in-flight nodes, not just the heap.
func (s *search) runAsync() {
	var (
		mu         sync.Mutex
		cond       = sync.Cond{L: &mu}
		inFlight   []float64 // bounds of nodes currently being evaluated
		stopped    bool
		boundFinal bool // s.bestBound already folds heap + in-flight; finish must keep it
	)
	stop := func() {
		if !stopped {
			stopped = true
			cond.Broadcast()
		}
	}
	// globalBound folds the heap top and every in-flight bound; extra, if
	// non-nil, is a just-popped node not yet counted anywhere.
	globalBound := func(extra *float64) float64 {
		var b float64
		have := false
		if extra != nil {
			b, have = *extra, true
		}
		if s.h.Len() > 0 {
			if !have || s.weakerBound(s.h.nodes[0].bound, b) {
				b, have = s.h.nodes[0].bound, true
			}
		}
		for _, fb := range inFlight {
			if !have || s.weakerBound(fb, b) {
				b, have = fb, true
			}
		}
		if s.abandoned && (!have || s.weakerBound(s.abandonedBound, b)) {
			b, have = s.abandonedBound, true
		}
		if !have {
			return s.incObj
		}
		return b
	}
	// stopAtLimit finalizes the reported bound before a node/time limit stop:
	// heap and in-flight subtrees are all unexplored at this point.
	stopAtLimit := func() {
		s.bestBound = globalBound(nil)
		boundFinal = true
		stop()
	}
	worker := func(e *evalSlot) {
		mu.Lock()
		defer mu.Unlock()
		// LIFO defers: the stats fold runs before the Unlock above, i.e.
		// still under the driver lock.
		defer s.lp.add(&e.sc.stats)
		for {
			for !stopped && s.h.Len() == 0 && len(inFlight) > 0 {
				cond.Wait()
			}
			if stopped || s.h.Len() == 0 {
				// Heap drained and nobody is expanding: search exhausted.
				stop()
				return
			}
			if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
				stopAtLimit()
				return
			}
			if s.opts.TimeLimit > 0 && time.Since(s.start) > s.opts.TimeLimit {
				s.deadlineHit = true
				stopAtLimit()
				return
			}
			node := heap.Pop(s.h).(*bbNode)
			glob := globalBound(&node.bound)
			s.bestBound = glob
			if s.incumbent != nil && !s.better(node.bound, s.incObj) {
				s.releaseWarm(node)
				continue // pruned by bound
			}
			// Stop only when the *global* bound meets the gap: the popped
			// node alone being within gap proves nothing while a
			// weaker-bound sibling is still in flight. Until then gap-met
			// nodes keep getting expanded — that work tightens the bound.
			if s.gapMet(glob) {
				s.releaseWarm(node)
				s.gapBreak = true
				boundFinal = true
				stop()
				return
			}
			s.nodes++
			idx := s.nodes
			inFlight = append(inFlight, node.bound)
			e.snap = s.takeSnap()
			mu.Unlock()
			r := s.evalNode(node, e, idx)
			mu.Lock()
			for i, fb := range inFlight {
				if fb == node.bound {
					inFlight = append(inFlight[:i], inFlight[i+1:]...)
					break
				}
			}
			s.conclude(r, e, !stopped)
			cond.Broadcast()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		// Each worker's LP state is borrowed here, on the driver goroutine:
		// once the workers run, the workspace is only touched under mu.
		e := s.newEvalSlot()
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(&e)
		}()
	}
	wg.Wait()
	s.boundFinal = boundFinal
}

// weakerBound reports whether a is a weaker (more conservative) bound than b.
func (s *search) weakerBound(a, b float64) bool {
	if s.maximize {
		return a > b
	}
	return a < b
}

// runBatch is the deterministic driver: synchronous rounds of up to Workers
// nodes, popped in best-bound order with sequence tie-breaks, evaluated
// concurrently, applied in pop order.
func (s *search) runBatch() {
	slots := make([]evalSlot, s.workers)
	for i := range slots {
		slots[i] = s.newEvalSlot()
	}
	defer func() {
		for i := range slots {
			s.lp.add(&slots[i].sc.stats)
		}
	}()
	batch := make([]*bbNode, 0, s.workers)
	idxs := make([]int, 0, s.workers)
	results := make([]nodeResult, s.workers)
	for s.h.Len() > 0 {
		if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
			break
		}
		if s.opts.TimeLimit > 0 && time.Since(s.start) > s.opts.TimeLimit {
			s.deadlineHit = true
			break
		}
		// Build this round's batch in deterministic best-bound order. The
		// gap test only applies to the first pop: it carries the global
		// bound, and stopping there matches the serial search.
		batch, idxs = batch[:0], idxs[:0]
		for len(batch) < s.workers && s.h.Len() > 0 {
			node := heap.Pop(s.h).(*bbNode)
			if len(batch) == 0 {
				s.bestBound = node.bound
			}
			if s.incumbent != nil && !s.better(node.bound, s.incObj) {
				s.releaseWarm(node)
				continue // pruned by bound
			}
			if len(batch) == 0 && s.gapMet(node.bound) {
				s.releaseWarm(node)
				s.gapBreak = true
				break
			}
			s.nodes++
			slots[len(batch)].snap = s.takeSnap()
			batch = append(batch, node)
			idxs = append(idxs, s.nodes)
		}
		if s.gapBreak {
			break
		}
		if len(batch) == 0 {
			continue
		}
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = s.evalNode(batch[i], &slots[i], idxs[i])
			}(i)
		}
		wg.Wait()
		for i := range batch {
			s.conclude(results[i], &slots[i], true)
		}
	}
}
