package milp

import (
	"container/heap"
	"math"
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
	node     *bbNode
	dead     bool        // infeasible, numerical trouble, or obj-pruned at solve time
	obj      float64     // LP objective of the node relaxation
	integral bool        // relaxation solved integral
	vals     []float64   // integral point (when integral)
	cand     []float64   // heuristic candidate to consider (may be nil)
	fracs    []fracVar   // fractional candidates (when !integral); branch selection
	snap     *basisState // node's optimal basis, shared by both children
}

// evalNode solves one node's LP relaxation on the worker's scratch and
// derives everything the shared-state apply step needs. It only reads search
// state that is fixed for the duration of the solve (model, p, opts,
// deadline) plus the caller's scratch, so it runs without the driver lock.
// idx is the node's 1-based processing index, used for the heuristic cadence.
func (s *search) evalNode(node *bbNode, sc *simplexState, lbBuf, ubBuf []float64, idx int) nodeResult {
	copy(lbBuf, s.p.lb)
	copy(ubBuf, s.p.ub)
	for _, o := range node.overrides {
		if o.isUB {
			ubBuf[o.col] = math.Min(ubBuf[o.col], o.value)
		} else {
			lbBuf[o.col] = math.Max(lbBuf[o.col], o.value)
		}
	}
	st, x, err := s.solveNodeLP(sc, node, lbBuf, ubBuf)
	if err != nil || st != lpOptimal {
		// Infeasible, unbounded (impossible below a bounded root), iteration
		// limit, or numerical trouble: prune, as the serial loop does.
		return nodeResult{node: node, dead: true}
	}
	r := nodeResult{node: node, obj: s.model.ObjectiveValue(x[:len(s.model.Vars)])}
	if fr := firstFractional(s.model, x); fr < 0 {
		r.integral = true
		r.vals = roundIntegral(s.model, x[:len(s.model.Vars)])
		return r
	}
	// Snapshot before the heuristic dive: the dive solves on its own scratch,
	// but taking the basis now keeps the capture adjacent to the solve it
	// belongs to.
	r.snap = s.nodeSnapshot(sc)
	if s.opts.Heuristic != nil && idx%16 == 0 {
		if cand := s.opts.Heuristic(x[:len(s.model.Vars)]); cand != nil && s.model.IsFeasible(cand, 1e-6) {
			r.cand = cand
		}
	} else if s.opts.Heuristic == nil && idx%64 == 0 {
		// The search's workspace belongs to the driver goroutine; a worker's
		// dive (rare: every 64th node, and only without a caller heuristic)
		// runs on fresh memory instead.
		if cand := diveFrom(new(Workspace), s.model, s.p, lbBuf, ubBuf, x, s.deadline, !s.opts.DisableWarmStart, &sc.stats); cand != nil {
			r.cand = cand
		}
	}
	// Branch selection consults the shared pseudocost table, so it happens in
	// the apply step (under the driver lock); only the fractional candidates
	// are captured here, copied because x aliases the worker scratch.
	r.fracs = gatherFractional(s.model, x, nil)
	return r
}

// applyResult publishes one evaluated node into the shared search state:
// incumbent updates and child creation. Callers must hold the driver lock
// (async) or apply results in deterministic order between rounds (batch).
func (s *search) applyResult(r nodeResult) {
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
		if o := s.model.ObjectiveValue(r.cand); s.incumbent == nil || s.better(o, s.incObj) {
			s.incumbent, s.incObj = r.cand, o
		}
		if s.incumbent != nil && !s.better(r.obj, s.incObj) {
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
	worker := func(sc *simplexState, lbBuf, ubBuf []float64) {
		mu.Lock()
		defer mu.Unlock()
		// LIFO defers: the stats fold runs before the Unlock above, i.e.
		// still under the driver lock.
		defer s.lp.add(&sc.stats)
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
				continue // pruned by bound
			}
			// Stop only when the *global* bound meets the gap: the popped
			// node alone being within gap proves nothing while a
			// weaker-bound sibling is still in flight. Until then gap-met
			// nodes keep getting expanded — that work tightens the bound.
			if s.gapMet(glob) {
				s.gapBreak = true
				boundFinal = true
				stop()
				return
			}
			s.nodes++
			idx := s.nodes
			inFlight = append(inFlight, node.bound)
			mu.Unlock()
			r := s.evalNode(node, sc, lbBuf, ubBuf, idx)
			mu.Lock()
			for i, fb := range inFlight {
				if fb == node.bound {
					inFlight = append(inFlight[:i], inFlight[i+1:]...)
					break
				}
			}
			if !stopped {
				s.applyResult(r)
			}
			cond.Broadcast()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		// Each worker's LP state is borrowed here, on the driver goroutine:
		// the workspace is not safe for concurrent use.
		sc := s.ws.newScratch(s.p)
		lbBuf := s.ws.floats.take(len(s.p.lb))
		ubBuf := s.ws.floats.take(len(s.p.ub))
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(sc, lbBuf, ubBuf)
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
	lbBufs := make([][]float64, s.workers)
	ubBufs := make([][]float64, s.workers)
	scratches := make([]*simplexState, s.workers)
	for i := range lbBufs {
		lbBufs[i] = s.ws.floats.take(len(s.p.lb))
		ubBufs[i] = s.ws.floats.take(len(s.p.ub))
		scratches[i] = s.ws.newScratch(s.p)
	}
	defer func() {
		for _, sc := range scratches {
			s.lp.add(&sc.stats)
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
				continue // pruned by bound
			}
			if len(batch) == 0 && s.gapMet(node.bound) {
				s.gapBreak = true
				break
			}
			s.nodes++
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
				results[i] = s.evalNode(batch[i], scratches[i], lbBufs[i], ubBufs[i], idxs[i])
			}(i)
		}
		wg.Wait()
		for i := range batch {
			s.applyResult(results[i])
		}
	}
}
