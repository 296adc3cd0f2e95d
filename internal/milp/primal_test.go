package milp

import (
	"container/heap"
	"math"
	"reflect"
	"testing"
)

// pointLog is a heuristic's record of the LP points it was offered.
type pointLog struct {
	calls int
	seen  map[uint64]int
}

// note records one offered point.
func (l *pointLog) note(x []float64) {
	h := uint64(len(x))
	for _, v := range x {
		h = mix64(h, math.Float64bits(v))
	}
	if l.seen == nil {
		l.seen = make(map[uint64]int)
	}
	l.seen[h]++
	l.calls++
}

// mix64 folds v into the hash h (a splitmix64-style finalization).
func mix64(h, v uint64) uint64 {
	v += h
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

func (l *pointLog) repeats() int {
	n := 0
	for _, k := range l.seen {
		n += k - 1
	}
	return n
}

// TestHeuristicOfferedEveryNode: the search offers the caller's heuristic the
// LP point of every node it evaluates and does not prune, once. Two nodes of
// one tree never share an LP point (their boxes are disjoint, or one is the
// other's descendant and excludes its point), so "no point twice" is "no node
// twice"; and a heuristic that proposes nothing leaves the count exact: the
// root and one call per branching.
func TestHeuristicOfferedEveryNode(t *testing.T) {
	branched := 0
	for seed := int64(0); seed < 12; seed++ {
		var log pointLog
		var opts Options
		opts.Heuristic = func(x []float64) []float64 {
			log.note(x)
			return nil
		}
		sol, err := solveAccounted(t, packingModel(seed, 10), opts)
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("seed %d: %v %+v", seed, err, sol)
		}
		branchings := int(sol.Branch.Pseudocost + sol.Branch.Fractional)
		branched += branchings
		if n := log.repeats(); n != 0 {
			t.Errorf("seed %d: %d LP points were offered more than once", seed, n)
		}
		if branchings > 0 && log.calls != 1+branchings {
			t.Errorf("seed %d: the search called %d times, want the root and its %d branchings", seed, log.calls, branchings)
		}
	}
	if branched < 100 {
		t.Fatalf("only %d branchings over all solves; the models no longer need a tree", branched)
	}
}

// floorInPlace rounds every integer column of x down, in x, the way the
// compiler's rounding works on the point it is handed; for the ≤-rows with
// nonnegative coefficients of packingModel the result is feasible.
func floorInPlace(m *Model, x []float64) []float64 {
	for i, v := range m.Vars {
		if v.Type != Continuous {
			x[i] = math.Floor(x[i] + intTol)
		}
	}
	return x
}

// TestDeterministicWithHeuristicEveryNode: with an in-place heuristic running
// at every node, repeated solves return the same answer, tree and call count.
func TestDeterministicWithHeuristicEveryNode(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := packingModel(seed, 12)
		var ref *Solution
		refCalls := 0
		for run := 0; run < 4; run++ {
			var log pointLog
			opts := Options{Gap: 0.01}
			opts.Heuristic = func(x []float64) []float64 {
				log.note(x)
				return floorInPlace(m, x)
			}
			sol, err := solveAccounted(t, m, opts)
			if err != nil || sol.Status != StatusOptimal {
				t.Fatalf("seed %d run %d: %v %+v", seed, run, err, sol)
			}
			if !m.IsFeasible(sol.Values, 1e-6) {
				t.Fatalf("seed %d run %d: infeasible answer", seed, run)
			}
			if run == 0 {
				ref, refCalls = sol, log.calls
				continue
			}
			if sol.Nodes != ref.Nodes || sol.Objective != ref.Objective || sol.Bound != ref.Bound || !reflect.DeepEqual(sol.Values, ref.Values) || log.calls != refCalls {
				t.Fatalf("seed %d run %d: %d nodes, objective %v, bound %v, %d calls; run 0 had %d, %v, %v, %d",
					seed, run, sol.Nodes, sol.Objective, sol.Bound, log.calls, ref.Nodes, ref.Objective, ref.Bound, refCalls)
			}
		}
	}
}

// TestRoundAllocatesNothing: offering a node's LP point to the heuristic —
// copied into the search's buffer for the heuristic to overwrite — allocates
// nothing once the search has its buffers, and neither does turning a
// candidate down.
func TestRoundAllocatesNothing(t *testing.T) {
	m := residentModel(2)
	w := new(Workspace)
	s := &search{ws: w, model: m, incObj: math.Inf(-1)}
	s.opts.Heuristic = func(x []float64) []float64 { return floorInPlace(m, x) }
	s.primal = w.floats.Take(len(m.Vars))
	x := make([]float64, len(m.Vars))
	for i := range x {
		x[i] = 0.5
	}
	s.consider(s.round(x))
	if s.incumbent == nil {
		t.Fatal("the floored point was not adopted")
	}
	if n := testing.AllocsPerRun(100, func() { s.consider(s.round(x)) }); n != 0 {
		t.Errorf("a round trip through the heuristic allocates %v times", n)
	}
}

// rootSearch solves m's root relaxation on w the way branchAndBound does and
// returns the search, ready for openRoot, with the root point and bound.
func rootSearch(t *testing.T, w *Workspace, m *Model, opts Options) (*search, []float64, float64) {
	t.Helper()
	p := w.newLP(m)
	s := &search{ws: w, model: m, p: p, opts: opts, incObj: math.Inf(-1)}
	s.incBuf = w.floats.Take(len(m.Vars))
	s.scratch = w.newScratch(p)
	st, x, err := s.scratch.solve(p.lb, p.ub, 0)
	if err != nil || st != lpOptimal {
		t.Fatalf("root: %v %v", st, err)
	}
	return s, x, m.ObjectiveValue(x[:len(m.Vars)])
}

// TestCorruptNodeSnapshotFallsBackCold: a parent basis that cannot seed a
// node's restart — a column basic in two rows, or resting on a bound it does
// not have — sends the node down the cold path, to the LP optimum the snapshot
// was taken at, and the search books the snapshot as it would a sound one.
func TestCorruptNodeSnapshotFallsBackCold(t *testing.T) {
	m := residentModel(1)
	for name, corrupt := range map[string]func(bs *basisState, p *lp){
		"duplicate basic column": func(bs *basisState, p *lp) { bs.basis[0] = bs.basis[1] },
		"rests on a missing bound": func(bs *basisState, p *lp) {
			for j := p.nvars; j < p.n; j++ { // a ≤-row's slack has no upper bound
				if bs.status[j] == atLower && math.IsInf(p.ub[j], 1) {
					bs.status[j] = atUpper
					return
				}
			}
			t.Fatal("no nonbasic slack to corrupt")
		},
	} {
		w := new(Workspace)
		s, _, rootObj := rootSearch(t, w, m, Options{})
		s.openRoot(rootObj)
		root := heap.Pop(s.h).(*bbNode)
		if root.warm == nil {
			t.Fatal("the root captured no snapshot; the test exercises nothing")
		}
		corrupt(root.warm, s.p)
		before := s.scratch.stats
		s.evalNode(root, make([]float64, s.p.n), make([]float64, s.p.n))
		if got := s.scratch.stats; got.WarmFallbacks != before.WarmFallbacks+1 || got.WarmHits != before.WarmHits {
			t.Errorf("%s: the restart was not rejected: %+v after %+v", name, got, before)
		}
		if s.h.Len() != 2 || math.Abs(s.h.nodes[0].bound-rootObj) > 1e-6 {
			t.Errorf("%s: %d children at bound %v; the cold path reaches the root's %v", name, s.h.Len(), s.h.nodes[0].bound, rootObj)
		}
		checkSnapshotBooks(t, w)
	}
}
