package milp

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means the solution is optimal within the configured gap.
	StatusOptimal Status = iota
	// StatusFeasible means a feasible incumbent was found but search ended
	// early (work, node, or iteration limit).
	StatusFeasible
	// StatusInfeasible means the model has no feasible solution.
	StatusInfeasible
	// StatusUnbounded means the relaxation is unbounded in the optimize
	// direction.
	StatusUnbounded
	// StatusNoSolution means search ended early with no incumbent.
	StatusNoSolution
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusNoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Options configures a Solve call. The zero value requests an exact solve
// with no limits. A solve is one serial search; the only concurrency in the
// package is between the parts of a SolveEach or SolveParts call.
type Options struct {
	// Gap is the relative MIP gap: search stops when
	// |bestBound − incumbent| ≤ Gap·max(1,|incumbent|). The paper configures
	// its solver to return solutions within 10% of optimal (§3.2.2).
	Gap float64
	// TimeLimit bounds the search's LP work (0 = unlimited) at what a reference
	// machine does in that time: a count, not a clock (docs/SOLVER.md, Work
	// budget). The best incumbent found is returned with StatusFeasible.
	TimeLimit time.Duration
	// MaxNodes bounds the number of branch-and-bound nodes (0 = unlimited).
	MaxNodes int
	// Workers once set how many open nodes a round of the tree search
	// evaluated at once, and Deterministic once chose those rounds over a
	// free-running worker pool. The tree search is now one serial loop.
	//
	// Deprecated: neither has any effect. Both are kept because
	// benchmark/replay.go, which is frozen, names them in a composite literal.
	Workers       int
	Deterministic bool
	// InitialSolution, if non-nil and feasible, seeds the incumbent — used by
	// the scheduler to warm-start each cycle with the previous cycle's plan.
	// An infeasible seed is silently ignored.
	InitialSolution []float64
	// Heuristic, if non-nil, proposes an integral candidate from an LP
	// relaxation point. Problem-aware callers (the STRL compiler) supply a
	// structure-exploiting rounding, offered the LP point of every evaluated
	// node; without one a search's incumbents come only from rounding the
	// root and from integral node LPs. Candidates are validated before being
	// accepted as incumbents. The point is the callback's to overwrite — it
	// may round in place and return the slice it was given — and the
	// candidate is read before the next call, then copied if adopted, so
	// neither needs a fresh allocation. One solve calls it from one goroutine
	// at a time; the parts of a SolveEach call solve on up to GOMAXPROCS
	// workers at once, so parts that share a callback need one that is safe
	// for concurrent use (functions of their input alone are).
	Heuristic func(relaxation []float64) []float64
	// DisableWarmStart forces every branch-and-bound node LP onto the cold
	// primal path instead of dual-simplex re-solving from the parent basis.
	// Warm restarts never change results — this switch exists for bisection
	// and for measuring their speedup, not for correctness workarounds.
	DisableWarmStart bool
}

// Solution is the result of a Solve call. Beside the answer it records what
// the solve proved about its warm-start seed: SeedCannotChange tells whether a
// solve from another seed would return the same Solution.
type Solution struct {
	Status    Status
	Objective float64     // objective of Values (valid unless NoSolution/Infeasible)
	Bound     float64     // best proven bound on the optimum
	Values    []float64   // one entry per model variable
	Nodes     int         // branch-and-bound nodes explored
	LP        LPStats     // LP-kernel telemetry summed over all relaxations
	Branch    BranchStats // branching-rule usage counts
	Runtime   time.Duration

	// Presolve once reported the rows a model-reduction pass dropped before
	// the search, and Cuts the root cutting-plane rounds that tightened the
	// relaxation; the solver hands the model to the search as it stands and
	// branches from the root LP.
	//
	// Deprecated: always zero. Kept because benchmark/replay.go, which is
	// frozen, reads Presolve.RowsDropped and Cuts.Rounds.
	Presolve struct{ RowsDropped int }
	Cuts     struct{ Rounds int }

	bar seedBar // what a later seed must beat to change this answer
}

// seedBar is what a solve proved about its warm-start seed
// (Options.InitialSolution): a solve of the same model and options from a
// seed that is infeasible, absent, or strictly worse than obj returns the
// same Solution. The search reads the seed in one place, its first incumbent,
// and the first feasible candidate of the root heuristics that beats that
// incumbent leaves the state a seedless solve has: the same incumbent, in the
// same memory, and the same slab takes. So obj is that candidate's objective;
// +Inf when the answer was settled before the seed was read (the root LP
// infeasible, an integral root); −Inf when no candidate came and no
// seed was adopted. The zero value proves nothing: the answer may rest on the
// seed it was solved from (a seed that survived the root heuristics, or one
// returned because the budget cut the root off).
type seedBar struct {
	obj float64
	ok  bool
}

// settled is the bar of an answer the search reached before it read the seed:
// no seed beats it.
var settled = seedBar{obj: math.Inf(1), ok: true}

// SeedCannotChange reports whether solving m again with seed as the warm start
// (nil: none), and otherwise the options and model this Solution was solved
// with, would return this Solution: seed is infeasible for m, or strictly
// worse than the bar the solve recorded.
func (s *Solution) SeedCannotChange(m *Model, seed []float64) bool {
	if !s.bar.ok {
		return false
	}
	if seed == nil || !m.IsFeasible(seed, 1e-6) {
		return true
	}
	return better(s.bar.obj, m.ObjectiveValue(seed))
}

// Gap returns the achieved relative gap between bound and objective.
func (s *Solution) Gap() float64 {
	return math.Abs(s.Bound-s.Objective) / math.Max(1, math.Abs(s.Objective))
}

const intTol = 1e-6

// bbNode is a branch-and-bound subproblem: its parent's bound box with one
// bound tightened. The root (parent nil) is the LP's own box. Everything but
// warm is fixed once the node is pushed.
type bbNode struct {
	bound  float64 // parent LP objective (optimistic)
	parent *bbNode
	warm   *basisState // parent's optimal basis (nil: solve cold)

	// The branching that made this node, which is both its tightening and its
	// record for pseudocost learning: the column (−1 at the root), the
	// direction (up raised the column's lower bound to bval, down lowered its
	// upper bound to it) and the fractional distance pushed.
	pcol  int
	pup   bool
	bval  float64
	pfrac float64
}

// nodeHeap holds the open nodes, highest bound on top.
type nodeHeap struct {
	nodes []*bbNode
}

func (h *nodeHeap) Len() int           { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool { return h.nodes[i].bound > h.nodes[j].bound }
func (h *nodeHeap) Swap(i, j int)      { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *nodeHeap) Push(x interface{}) { h.nodes = append(h.nodes, x.(*bbNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.nodes
	n := len(old)
	x := old[n-1]
	old[n-1] = nil // the array outlives the solve; its nodes do not
	h.nodes = old[:n-1]
	return x
}

// search carries the branch-and-bound state of one solve (see run).
type search struct {
	ws     *Workspace
	model  *Model
	p      *lp
	opts   Options
	budget int64 // LP work the search may do; 0: no limit

	incumbent []float64
	incObj    float64
	incBuf    []float64 // the incumbent's memory, on the workspace like the rest of the search
	bar       seedBar   // the answer's, once the root heuristics have run
	offered   bool      // a root heuristic has offered a feasible candidate

	primal []float64 // the caller's heuristic's memory: the LP point it may overwrite

	scratch *simplexState // the root's LP scratch, then every node's; its stats are the solve's
	branch  BranchStats   // branching-rule usage
	pc      pcTable       // learned pseudocosts
	fracBuf []fracVar     // the branching step's fractional-candidate scratch

	h *nodeHeap

	nodes     int
	bestBound float64 // proven global bound (highest open node)
	gapBreak  bool    // terminated with the global bound gap-met

	// A node whose LP was given up on (work budget, iteration cap, numerical
	// error) is neither solved nor infeasible: its subtree stays unexplored
	// and its bound stays part of the global bound.
	abandoned      bool
	abandonedBound float64 // highest bound among abandoned nodes
}

// better reports whether objective a is strictly better (higher) than b.
func better(a, b float64) bool { return a > b+1e-12 }

// gapMet reports whether the incumbent is within the configured gap of bound.
func (s *search) gapMet(bound float64) bool {
	if s.incumbent == nil {
		return false
	}
	return math.Abs(bound-s.incObj) <= s.opts.Gap*math.Max(1, math.Abs(s.incObj))+1e-9
}

// consider adopts cand as the incumbent if it is feasible and better.
func (s *search) consider(cand []float64) {
	if cand != nil && s.model.IsFeasible(cand, 1e-6) {
		s.adopt(cand)
	}
}

// offerRoot is consider for a root heuristic's candidate. The first feasible
// one sets the bar: it is adopted unless the seed survives it, and once it is
// adopted the search is the seedless one.
func (s *search) offerRoot(cand []float64) {
	if cand == nil || !s.model.IsFeasible(cand, 1e-6) {
		return
	}
	if !s.offered {
		s.offered = true
		if obj := s.model.ObjectiveValue(cand); s.incumbent == nil || better(obj, s.incObj) {
			s.bar = seedBar{obj: obj, ok: true}
		} // else the seed is live, and there is no bar
	}
	s.adopt(cand)
}

// adopt makes a feasible cand the incumbent if it is better. The incumbent is
// a copy, in memory the search keeps from one incumbent to the next: cand may
// live in the heuristic's buffer, and most candidates are not adopted.
func (s *search) adopt(cand []float64) {
	if obj := s.model.ObjectiveValue(cand); s.incumbent == nil || better(obj, s.incObj) {
		s.incumbent, s.incObj = append(s.incBuf[:0], cand...), obj
	}
}

// The primal side. A search that ends by gap waits for an incumbent as often
// as for a bound, so every evaluated node's LP point is offered to the
// caller's rounding (docs/SOLVER.md, Search); a search without one
// finds incumbents only by rounding the root and at integral nodes.

// round offers the LP point x to the caller's heuristic, if there is one, and
// returns its candidate, unvalidated, or nil. The heuristic sees a copy of x's
// structural part in s.primal, which it may overwrite; the candidate may live
// there (or be the caller's own) and is good until the next round.
func (s *search) round(x []float64) []float64 {
	if s.opts.Heuristic == nil {
		return nil
	}
	copy(s.primal, x[:len(s.model.Vars)])
	return s.opts.Heuristic(s.primal)
}

// Tree memory. Nodes, basis snapshots and the open-node heap live in the
// workspace and die with the solve.

// nodeBlockSize is how many nodes are cut from the node slab at a time.
const nodeBlockSize = 64

// newNode hands out a zeroed node that lives until the workspace is rewound.
func (w *Workspace) newNode() *bbNode {
	if len(w.block) == 0 {
		w.block = w.nodes.take(nodeBlockSize)
	}
	n := &w.block[0]
	w.block = w.block[1:]
	return n
}

// box writes the node's bound box into lb and ub: the LP's own, tightened by
// every branching between the node and the root. The tightenings are min and
// max, so walking them leaf first gives the box the root-first order gives.
func (s *search) box(node *bbNode, lb, ub []float64) {
	copy(lb, s.p.lb)
	copy(ub, s.p.ub)
	for n := node; n.parent != nil; n = n.parent {
		if n.pup {
			lb[n.pcol] = math.Max(lb[n.pcol], n.bval)
		} else {
			ub[n.pcol] = math.Min(ub[n.pcol], n.bval)
		}
	}
}

// takeSnap hands out a snapshot buffer for the LP's shape — one no node
// references any more when there is one, a new one cut from the slabs
// otherwise — or nil when warm starts are disabled.
func (s *search) takeSnap() *basisState {
	if s.opts.DisableWarmStart {
		return nil
	}
	free := s.ws.snapFree
	if n := len(free); n > 0 {
		bs := free[n-1]
		free[n-1] = nil
		s.ws.snapFree = free[:n-1]
		return bs
	}
	return s.ws.newSnapshot(s.p)
}

// settleSnap returns a buffer from takeSnap to the free list unless children
// now reference it: nothing was captured into it, or its node did not branch.
func (s *search) settleSnap(bs *basisState) {
	if bs != nil && bs.refs == 0 {
		s.ws.snapFree = append(s.ws.snapFree, bs)
	}
}

// releaseWarm drops the node's reference to its parent's basis: the node has
// restored from it, or was pruned and never will.
func (s *search) releaseWarm(n *bbNode) {
	if bs := n.warm; bs != nil {
		n.warm = nil
		bs.refs--
		s.settleSnap(bs)
	}
}

// capture takes the scratch's basis into buf for the node's children; nil
// when there is no buffer (warm starts disabled) or the basis cannot seed a
// warm start.
func capture(sc *simplexState, buf *basisState) *basisState {
	if buf == nil || !sc.snapshotInto(buf) {
		return nil
	}
	return buf
}

// abandon records a node whose LP did not reach a verdict.
func (s *search) abandon(n *bbNode) {
	if !s.abandoned || n.bound > s.abandonedBound {
		s.abandoned, s.abandonedBound = true, n.bound
	}
}

// LP work is simplex iterations plus factorWeight per basis factorization, and
// Options.TimeLimit is workPerSecond units a second: both fitted on the paper's
// GS HET mix on RC80 (docs/SOLVER.md, Work budget).
const factorWeight, workPerSecond = 4, 30000

// work is the LP work st counts.
func (st *LPStats) work() int64 { return st.Iterations + factorWeight*st.Factorizations }

// left is the LP work the budget has left over what the scratch has done
// (MaxInt without a budget): the next LP's iteration cap.
func (s *search) left() int {
	if s.budget == 0 {
		return math.MaxInt
	}
	return int(s.budget - s.scratch.stats.work())
}

// solveNodeLP solves one node's relaxation on the search's scratch,
// warm-starting from the parent basis unless the kill switch is set or the
// node carries no snapshot.
func (s *search) solveNodeLP(node *bbNode, lb, ub []float64) (lpStatus, []float64, error) {
	if s.opts.DisableWarmStart {
		return s.scratch.solve(lb, ub, s.left())
	}
	return s.scratch.solveFrom(node.warm, lb, ub, s.left())
}

// Solve optimizes the model. Pure LPs (no integer variables) are solved with
// a single simplex call; otherwise best-bound branch-and-bound runs until the
// gap, work, or node limit is met.
func Solve(model *Model, opts Options) (*Solution, error) {
	// A throwaway workspace: every buffer is a fresh allocation and nothing
	// is retained.
	return new(Workspace).solve(model, opts, new(Solution))
}

// Presolve once reduced a model before the search.
//
// Deprecated: it does nothing. Kept because benchmark/replay.go, which is
// frozen, calls it.
func Presolve(*Model) {}

// solve is Solve on w's memory, written into out; the caller rewinds w
// afterwards. The search's answer is w's, incumbent included, so the last step
// is to copy it out: into out, whose Values' memory takes the values when it is
// large enough (Part.Out), a fresh allocation otherwise.
func (w *Workspace) solve(model *Model, opts Options, out *Solution) (*Solution, error) {
	start := time.Now()
	if err := model.Validate(); err != nil {
		return nil, err
	}
	ans, err := w.branchAndBound(model, opts)
	if err != nil {
		return nil, err
	}
	dst := out.Values[:0]
	*out = *ans
	if len(ans.Values) > 0 { // else out has ans's nil, or the empty point of a model without variables
		out.Values = append(dst, ans.Values...)
	}
	out.Runtime = time.Since(start)
	return out, nil
}

// branchAndBound solves a validated model as it stands, into the workspace's
// answer.
func (w *Workspace) branchAndBound(model *Model, opts Options) (*Solution, error) {
	if len(model.Vars) == 0 {
		// The empty point is the optimum: a solution, not the nil of none.
		return w.answer(Solution{Status: StatusOptimal, Values: []float64{}, bar: settled}), nil
	}
	p := w.newLP(model)

	s := &w.search // the search dies with the solve, like everything else on w
	*s = search{
		ws:     w,
		model:  model,
		p:      p,
		opts:   opts,
		incObj: math.Inf(-1),
	}
	if opts.TimeLimit > 0 {
		s.budget = int64(math.Ceil(opts.TimeLimit.Seconds() * workPerSecond))
	}
	s.incBuf = w.floats.take(len(model.Vars))
	if opts.InitialSolution != nil && model.IsFeasible(opts.InitialSolution, 1e-6) {
		s.incumbent = append(s.incBuf[:0], opts.InitialSolution...)
		s.incObj = model.ObjectiveValue(s.incumbent)
	} else {
		s.bar = seedBar{obj: math.Inf(-1), ok: true} // the seedless search: any feasible seed would move it
	}

	// Root relaxation, solved on the scratch the tree's nodes reuse.
	s.scratch = w.newScratch(p)
	st, x, err := s.scratch.solve(p.lb, p.ub, s.left())
	if err != nil {
		return nil, err
	}
	switch st {
	case lpInfeasible:
		return w.answer(Solution{Status: StatusInfeasible, Nodes: 1, LP: s.scratch.stats, bar: settled}), nil
	case lpUnbounded:
		return w.answer(Solution{Status: StatusUnbounded, Nodes: 1, LP: s.scratch.stats, bar: settled}), nil
	case lpIterLimit:
		// Root aborted (work budget or iteration cap): report the seed
		// incumbent if one was provided, else no solution.
		if s.incumbent != nil {
			return w.answer(Solution{Status: StatusFeasible, Objective: s.incObj, Values: s.incumbent, Nodes: 1, LP: s.scratch.stats}), nil
		}
		return w.answer(Solution{Status: StatusNoSolution, Nodes: 1, LP: s.scratch.stats, bar: s.bar}), nil
	}
	rootObj := model.ObjectiveValue(x[:len(model.Vars)])
	if firstFractional(model, x) < 0 {
		// LP optimum is already integral, and nothing after the LP reads the
		// seed.
		vals := roundIntegralInto(s.incBuf, model, x[:len(model.Vars)])
		return w.answer(Solution{
			Status:    StatusOptimal,
			Objective: model.ObjectiveValue(vals),
			Bound:     rootObj,
			Values:    vals,
			Nodes:     1,
			LP:        s.scratch.stats,
			bar:       settled,
		}), nil
	}

	// Heuristics on the root for a strong starting incumbent: plain rounding,
	// then the caller's. A good incumbent matters because gap-based
	// termination returns it directly: on the scheduler's models the search
	// usually ends at its first pop.
	s.offerRoot(roundHeuristic(model, x, s.ws.floats.take(len(model.Vars))))
	if opts.Heuristic != nil {
		s.primal = s.ws.floats.take(len(model.Vars))
	}
	s.offerRoot(s.round(x))

	s.openRoot(rootObj)
	s.run()
	return s.finish(), nil
}

// openRoot starts the tree at the solved root relaxation held by s.scratch.
func (s *search) openRoot(rootObj float64) {
	s.pc = s.ws.newPCTable(len(s.model.Vars))
	s.h = &s.ws.open
	*s.h = nodeHeap{nodes: s.h.nodes[:0]}
	buf := s.takeSnap()
	root := s.ws.newNode()
	*root = bbNode{bound: rootObj, warm: capture(s.scratch, buf), pcol: -1}
	if root.warm != nil {
		root.warm.refs = 1
	}
	s.settleSnap(buf)
	heap.Push(s.h, root)
	s.nodes = 1
	s.bestBound = rootObj
}

// atNodeLimit reports whether Options.MaxNodes nodes have been evaluated.
func (s *search) atNodeLimit() bool {
	return s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes
}

// run searches the tree until it is exhausted, the global bound meets the
// gap, or MaxNodes or the work budget stops it. Each turn pops the open node of
// best bound, which is then the global bound; prunes it against the incumbent;
// stops if it meets the gap; and otherwise evaluates it on the search's scratch.
func (s *search) run() {
	lb, ub := s.ws.floats.take(len(s.p.lb)), s.ws.floats.take(len(s.p.ub))
	for s.h.Len() > 0 && !s.atNodeLimit() {
		if s.left() <= 0 {
			return
		}
		node := heap.Pop(s.h).(*bbNode)
		s.bestBound = node.bound
		if s.incumbent != nil && !better(node.bound, s.incObj) {
			s.releaseWarm(node)
			continue // pruned by bound
		}
		if s.gapMet(node.bound) {
			s.releaseWarm(node)
			s.gapBreak = true
			return
		}
		s.nodes++
		s.evalNode(node, lb, ub)
	}
}

// evalNode solves the node's relaxation in the box lb, ub and files what it
// found: the pseudocost outcome, a new incumbent, the children.
func (s *search) evalNode(node *bbNode, lb, ub []float64) {
	s.box(node, lb, ub)
	st, x, err := s.solveNodeLP(node, lb, ub)
	s.releaseWarm(node) // it has restored from its parent's basis
	if err != nil || st == lpIterLimit {
		s.abandon(node) // no verdict: the subtree stays open
		return
	}
	if st != lpOptimal {
		return // infeasible (or unbounded, impossible below a bounded root)
	}
	obj := s.model.ObjectiveValue(x[:len(s.model.Vars)])
	s.noteBranchOutcome(node, obj)
	if s.incumbent != nil && !better(obj, s.incObj) {
		return
	}
	if firstFractional(s.model, x) < 0 {
		s.adopt(roundIntegral(s.model, x[:len(s.model.Vars)]))
		return
	}
	if s.consider(s.round(x)); !better(obj, s.incObj) {
		return // the candidate itself closed this subtree
	}
	// Both children share the node's basis. The buffer is usually the one the
	// node itself just restored from.
	buf := s.takeSnap()
	snap := capture(s.scratch, buf)
	// Branch by pseudocost score (most-fractional until the table has history).
	s.fracBuf = gatherFractional(s.model, x, s.fracBuf)
	bv, v := s.selectBranch(s.fracBuf)
	s.pushChildren(node, bv, v, obj, snap)
	s.settleSnap(buf)
}

// finish derives the reported bound and status from the terminal search
// state and assembles the workspace's answer.
func (s *search) finish() *Solution {
	if s.gapBreak {
		// Terminated by popping a gap-met node: that node's subtree is
		// unexplored, so its bound (already in s.bestBound) remains the
		// proven global bound. Historically the bound was recomputed from
		// the heap top (or collapsed to the incumbent when the heap was
		// empty) — both can be tighter than what was actually proven,
		// overstating how close the incumbent is to optimal. Keep the
		// popped bound, widened by any surviving open nodes.
		b := s.bestBound
		if s.h.Len() > 0 {
			b = math.Max(b, s.h.nodes[0].bound)
		}
		if s.incumbent != nil {
			b = math.Max(b, s.incObj)
		}
		s.bestBound = b
	} else if s.h.Len() == 0 && !s.abandoned {
		// Exhausted the tree: the incumbent is exactly optimal.
		s.bestBound = s.incObj
	} else if s.h.Len() > 0 {
		s.bestBound = math.Max(s.h.nodes[0].bound, s.incObj)
	}
	if s.abandoned {
		// An abandoned subtree is as unexplored as an open one, and in
		// best-bound order it was popped before everything still open, so its
		// bound is the weaker. (Without an incumbent incObj is −Inf.)
		s.bestBound = math.Max(math.Max(s.bestBound, s.abandonedBound), s.incObj)
	}
	// Proof of optimality or infeasibility needs every subtree closed.
	closed := s.h.Len() == 0 && !s.abandoned

	sol := s.ws.answer(Solution{Nodes: s.nodes, Bound: s.bestBound, LP: s.scratch.stats, Branch: s.branch, bar: s.bar})
	if s.incumbent == nil {
		if closed {
			sol.Status = StatusInfeasible
		} else {
			sol.Status = StatusNoSolution
		}
		return sol
	}
	sol.Values = s.incumbent
	sol.Objective = s.incObj
	if closed || s.gapMet(s.bestBound) {
		sol.Status = StatusOptimal
	} else {
		sol.Status = StatusFeasible
	}
	return sol
}

// firstFractional returns the index of an integer-typed variable whose LP
// value is fractional, or -1 if the LP point is integral.
func firstFractional(m *Model, x []float64) int {
	for i, v := range m.Vars {
		if v.Type == Continuous {
			continue
		}
		if math.Abs(x[i]-math.Round(x[i])) > intTol {
			return i
		}
	}
	return -1
}

// roundIntegral snaps near-integer values of integer variables exactly.
func roundIntegral(m *Model, x []float64) []float64 {
	return roundIntegralInto(nil, m, x)
}

// roundIntegralInto is roundIntegral into dst's memory when x fits there.
func roundIntegralInto(dst []float64, m *Model, x []float64) []float64 {
	out := append(dst[:0], x...)
	for i, v := range m.Vars {
		if v.Type != Continuous {
			out[i] = math.Round(out[i])
		}
	}
	return out
}

// roundHeuristic tries rounding the relaxation to a feasible integer point,
// down and then to nearest, in cand, which it returns when one is feasible.
// For the down-monotone models STRL compiles to (all demands scale with
// indicators), rounding indicators down is frequently feasible.
func roundHeuristic(m *Model, x, cand []float64) []float64 {
	for _, nearest := range [2]bool{false, true} {
		copy(cand, x)
		for i := range m.Vars {
			v := &m.Vars[i]
			if v.Type == Continuous {
				continue
			}
			r := math.Floor(cand[i])
			if nearest {
				r = math.Round(cand[i])
			}
			cand[i] = clampVal(r, v.Lb, v.Ub)
		}
		if m.IsFeasible(cand, 1e-6) {
			return cand
		}
	}
	return nil
}
