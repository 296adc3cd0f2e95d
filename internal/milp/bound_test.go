package milp

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// randKnapsack builds a seeded random binary knapsack. These models
// reproduce the historical gap-termination bound misreport: search often
// breaks by popping a gap-met node whose subtree is unexplored, and the old
// code then recomputed the bound from the heap top (or collapsed it to the
// incumbent), overstating how close the incumbent was to optimal.
func randKnapsack(seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	m := &Model{}
	n := 10 + r.Intn(10)
	terms := make([]Term, n)
	for i := 0; i < n; i++ {
		v := m.AddVar(Binary, 0, 1, 1+r.Float64()*10)
		terms[i] = Term{v, 1 + r.Float64()*5}
	}
	m.AddConstraint(terms, LE, float64(n))
	return m
}

// TestGapBoundNotOverstated asserts the core invariant the old code broke:
// the reported Bound must never be tighter than the true optimum. Before the
// fix, gap-limited solves of these models reported Bound equal to the
// incumbent (claiming a 0.0000 achieved gap) while the true optimum sat
// several percent above it — e.g. seed 2 at gap 0.15 reported Bound
// 43.6037 against a true optimum of 46.6652.
func TestGapBoundNotOverstated(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		exact, err := Solve(randKnapsack(seed), Options{})
		if err != nil || exact.Status != StatusOptimal {
			t.Fatalf("seed %d: exact solve failed: %v %v", seed, exact, err)
		}
		for _, gap := range []float64{0.15, 0.25, 0.35} {
			sol, err := Solve(randKnapsack(seed), Options{Gap: gap})
			if err != nil {
				t.Fatalf("seed %d gap %g: %v", seed, gap, err)
			}
			if sol.Bound < exact.Objective-1e-6 {
				t.Errorf("seed %d gap %g: Bound %.6f tighter than true optimum %.6f (incumbent %.6f, claimed gap %.4f)",
					seed, gap, sol.Bound, exact.Objective, sol.Objective, sol.Gap())
			}
			if sol.Gap() > gap+1e-9 {
				t.Errorf("seed %d gap %g: achieved gap %.4f exceeds requested", seed, gap, sol.Gap())
			}
		}
	}
}

// TestGapBreakKeepsPoppedBound pins the exact termination state the bug
// lived in: search breaks by popping a gap-met node (bound 10) while the
// heap still holds a weaker open node (bound 8) and the incumbent sits at
// 7.5. The popped node's subtree is unexplored, so 10 is the only proven
// global bound; the old code reported max(heap-top, incumbent) = 8.
func TestGapBreakKeepsPoppedBound(t *testing.T) {
	m := &Model{}
	m.AddVar(Binary, 0, 1, 1)
	s := &search{
		ws:        new(Workspace),
		model:     m,
		opts:      Options{Gap: 0.5},
		incumbent: []float64{1},
		incObj:    7.5,
		h:         &nodeHeap{},
		nodes:     3,
		bestBound: 10, // the popped, gap-met, unexplored node
		gapBreak:  true,
	}
	heap.Init(s.h)
	heap.Push(s.h, &bbNode{bound: 8})
	sol := s.finish()
	if sol.Bound != 10 {
		t.Fatalf("Bound = %v, want the popped node's bound 10 (heap top 8 is not a proven global bound)", sol.Bound)
	}
	if got := sol.Gap(); math.Abs(got-2.5/7.5) > 1e-12 {
		t.Fatalf("Gap() = %v, want 0.3333", got)
	}
	if sol.Status != StatusOptimal { // 10 is still within the configured 0.5 gap
		t.Fatalf("Status = %v, want optimal-within-gap", sol.Status)
	}
}

// TestGapBreakEmptyHeapKeepsPoppedBound covers the sibling flavor: the
// gap-met pop empties the heap. The old code collapsed Bound to the
// incumbent (claiming exact optimality) even though the popped subtree was
// never explored.
func TestGapBreakEmptyHeapKeepsPoppedBound(t *testing.T) {
	m := &Model{}
	m.AddVar(Binary, 0, 1, 1)
	s := &search{
		ws:        new(Workspace),
		model:     m,
		opts:      Options{Gap: 0.5},
		incumbent: []float64{1},
		incObj:    7.5,
		h:         &nodeHeap{},
		nodes:     3,
		bestBound: 10,
		gapBreak:  true,
	}
	heap.Init(s.h)
	sol := s.finish()
	if sol.Bound != 10 {
		t.Fatalf("Bound = %v, want the popped node's bound 10, not the incumbent 7.5", sol.Bound)
	}
	if sol.Gap() == 0 {
		t.Fatal("Gap() = 0 misreports an approximate solve as exact")
	}
}

// TestAbandonedNodeKeepsItsBound pins what a node LP given up on means. The
// work budget has one unit left after the root solve, so the root node's
// re-solve is cut off after one pivot — no verdict on the node, nothing
// known about its subtree. The search used to treat that like an infeasible
// node: the heap drained, and it reported the tree exhausted — "optimal" with
// Bound collapsed to the incumbent, or "infeasible" without one.
func TestAbandonedNodeKeepsItsBound(t *testing.T) {
	for _, withIncumbent := range []bool{false, true} {
		m := residentModel(1)
		w := new(Workspace)
		s, x, rootObj := rootSearch(t, w, m, Options{})
		if firstFractional(m, x) < 0 {
			t.Fatal("the root is integral; the test needs a tree")
		}
		if withIncumbent {
			if s.consider(roundHeuristic(m, x, make([]float64, len(m.Vars)))); s.incumbent == nil || s.incObj >= rootObj {
				t.Fatal("rounding the root gave no incumbent strictly below the bound")
			}
		}
		leaveOneUnit(s)
		s.openRoot(rootObj)
		s.run()
		checkSnapshotBooks(t, w)
		sol := s.finish()
		if sol.Nodes != 2 || s.h.Len() != 0 || !s.abandoned {
			t.Fatalf("%d nodes, %d open, abandoned %v; want the root node popped and given up on", sol.Nodes, s.h.Len(), s.abandoned)
		}
		if sol.Bound != rootObj {
			t.Errorf("incumbent=%v: Bound %v, want the abandoned node's %v", withIncumbent, sol.Bound, rootObj)
		}
		want := StatusNoSolution
		if withIncumbent {
			want = StatusFeasible
		}
		if sol.Status != want {
			t.Errorf("incumbent=%v: status %v, want %v: an unexplored subtree proves nothing", withIncumbent, sol.Status, want)
		}
	}
}

// leaveOneUnit sets the search's work budget to what it has spent plus one
// unit: its next LP starts with an iteration cap of one.
func leaveOneUnit(s *search) {
	s.budget = s.lp.work() + s.scratch.stats.work() + 1
}

// TestAbandonedBoundWeakerThanOpenNodes: with nodes still open the reported
// bound used to be the heap top, which in best-bound order is tighter than the
// bound of a node popped — and dropped — before it.
func TestAbandonedBoundWeakerThanOpenNodes(t *testing.T) {
	m := &Model{}
	m.AddVar(Binary, 0, 1, 1)
	s := &search{
		ws: new(Workspace), model: m,
		incumbent: []float64{1}, incObj: 7.5,
		h:     &nodeHeap{},
		nodes: 5, bestBound: 9,
	}
	heap.Push(s.h, &bbNode{bound: 9})
	s.abandon(&bbNode{bound: 10})
	s.abandon(&bbNode{bound: 9.5})
	sol := s.finish()
	if sol.Bound != 10 || sol.Status != StatusFeasible {
		t.Fatalf("Bound %v status %v, want the weakest abandoned bound 10 and feasible", sol.Bound, sol.Status)
	}
}
