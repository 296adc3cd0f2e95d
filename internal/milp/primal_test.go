package milp

import (
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
		opts := Options{DisableCuts: true} // a cut round's offer is not a node's
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
	s.primal = w.floats.take(len(m.Vars))
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
// returns the search, ready for runCutRounds or openRoot, with the root point
// and bound.
func rootSearch(t *testing.T, w *Workspace, m *Model, opts Options) (*search, []float64, float64) {
	t.Helper()
	p := w.newLP(m)
	s := &search{ws: w, model: m, p: p, opts: opts, incObj: math.Inf(-1)}
	s.incBuf = w.floats.take(len(m.Vars))
	s.scratch = w.newScratch(p)
	st, x, err := s.scratch.solve(p.lb, p.ub, 0)
	if err != nil || st != lpOptimal {
		t.Fatalf("root: %v %v", st, err)
	}
	return s, x, m.ObjectiveValue(x[:len(m.Vars)])
}

// TestWarmCutRoundsMatchCold is the property the warm re-solve rests on, over
// 400 seeded packing models: a cut round re-solved by the dual simplex from
// the previous round's basis reaches the optimum a cold primal solve of the
// same grown LP reaches. Round one always separates at the same point, so its
// cuts and bound must agree; later rounds are compared while the rounds
// before them added the same cuts (two solves may stop on different optimal
// vertices of a degenerate LP, which then separate differently). Either way
// the final bound is a valid one: no tighter than the true optimum.
func TestWarmCutRoundsMatchCold(t *testing.T) {
	const seeds = 400
	rounds, cut, same, warmHits := 0, 0, 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		m := packingModel(seed, 8+int(seed%7))
		exact, err := Solve(m, Options{DisableCuts: true})
		if err != nil || exact.Status != StatusOptimal {
			t.Fatalf("seed %d: exact solve: %v %+v", seed, err, exact)
		}
		warm, wx, wObj := rootSearch(t, new(Workspace), m, Options{})
		cold, cx, cObj := rootSearch(t, new(Workspace), m, Options{DisableWarmStart: true})
		if !reflect.DeepEqual(wx, cx) {
			t.Fatalf("seed %d: the two root solves differ", seed)
		}
		first := len(new(Workspace).separateCuts(m, wx)) // what round one adds
		_, wObj = warm.runCutRounds(wx, wObj)
		_, cObj = cold.runCutRounds(cx, cObj)
		for name, s := range map[string]*search{"warm": warm, "cold": cold} {
			if bound := s.model.ObjectiveValue(s.scratch.x[:len(m.Vars)]); bound < exact.Objective-1e-6 {
				t.Fatalf("seed %d %s: bound %v after %d rounds cuts off the optimum %v", seed, name, bound, s.cuts.Rounds, exact.Objective)
			}
		}
		if cold.lp.WarmHits+cold.scratch.stats.WarmHits != 0 {
			t.Fatalf("seed %d: DisableWarmStart took the warm path", seed)
		}
		if warm.cuts.Rounds == 0 {
			continue
		}
		cut++
		rounds += warm.cuts.Rounds
		warmHits += warm.lp.WarmHits + warm.scratch.stats.WarmHits
		// The cuts are rows len(m.Cons) onwards of either grown model, round
		// one's first.
		n := len(m.Cons)
		wCons, cCons := warm.model.Cons[n:], cold.model.Cons[n:]
		if cold.cuts.Rounds == 0 || !reflect.DeepEqual(wCons[:first], cCons[:first]) {
			t.Fatalf("seed %d: round one, from the same point, added different cuts", seed)
		}
		if reflect.DeepEqual(wCons, cCons) {
			same++
			if math.Abs(wObj-cObj) > 1e-6*math.Max(1, math.Abs(cObj)) {
				t.Fatalf("seed %d: the same %d cuts give bound %.9f warm, %.9f cold", seed, len(wCons), wObj, cObj)
			}
		}
	}
	t.Logf("%d models cut in %d rounds, %d re-solved warm; %d models ended with the cold path's cuts", cut, rounds, warmHits, same)
	if rounds < 200 || warmHits < rounds*9/10 {
		t.Fatalf("%d rounds, %d of them re-solved warm: the dual path is not carrying the rounds", rounds, warmHits)
	}
	if same < cut/2 {
		t.Fatalf("only %d of %d models ended with the cuts the cold path adds", same, cut)
	}
}

// TestStaleCutBasisFallsBackCold: a root basis that cannot seed the restart —
// a column basic in two rows, or resting on a bound it does not have — sends
// the round down the cold path, to the cold path's cuts and bound.
func TestStaleCutBasisFallsBackCold(t *testing.T) {
	m := residentModel(1)
	cold, cx, cObj := rootSearch(t, new(Workspace), m, Options{DisableWarmStart: true})
	_, cObj = cold.runCutRounds(cx, cObj)
	if cold.cuts.Rounds == 0 {
		t.Fatal("no round ran; the test exercises nothing")
	}
	for name, corrupt := range map[string]func(sc *simplexState){
		"duplicate basic column": func(sc *simplexState) { sc.basis[0] = sc.basis[1] },
		"rests on a missing bound": func(sc *simplexState) {
			for j := sc.p.nvars; j < sc.p.n; j++ { // a ≤-row's slack has no upper bound
				if sc.status[j] == atLower && math.IsInf(sc.p.ub[j], 1) {
					sc.status[j] = atUpper
					return
				}
			}
			t.Fatal("no nonbasic slack to corrupt")
		},
	} {
		s, x, obj := rootSearch(t, new(Workspace), m, Options{})
		corrupt(s.scratch)
		_, obj = s.runCutRounds(x, obj)
		s.lp.add(&s.scratch.stats)
		if s.lp.WarmFallbacks == 0 {
			t.Errorf("%s: the restart was not rejected: %+v", name, s.lp)
		}
		if math.Abs(obj-cObj) > 1e-6 || s.cuts != cold.cuts {
			t.Errorf("%s: bound %v after %+v, the cold path reaches %v after %+v", name, obj, s.cuts, cObj, cold.cuts)
		}
	}
}
