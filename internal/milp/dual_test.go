package milp

import (
	"math"
	"testing"
)

// degenerateModel is maximally tie-heavy: n unit-box variables under one
// binding cardinality cap duplicated dup times, so every re-solve pivots
// through rows with identical ratios and zero-length dual steps — the
// precondition for classical simplex cycling.
func degenerateModel(n, capacity, dup int) *Model {
	m := &Model{}
	terms := make([]Term, n)
	for j := 0; j < n; j++ {
		m.AddVar(Continuous, 0, 1, 1)
		terms[j] = Term{Var: VarID(j), Coef: 1}
	}
	for i := 0; i < dup; i++ {
		m.AddConstraint(terms, LE, float64(capacity))
	}
	return m
}

// TestDualDegenerateChainNoCycle pins the dual phase's anti-cycling behavior:
// walking a branch-and-bound-style chain of bound fixings across a fully
// degenerate LP must terminate, agree with cold solves at every step, and do
// so in a bounded number of pivots (a cycle would exhaust the dual budget and
// show up as a fallback storm or an iteration blow-up).
func TestDualDegenerateChainNoCycle(t *testing.T) {
	const n, capacity, dup = 12, 6, 5
	model := degenerateModel(n, capacity, dup)
	p := newLP(model)

	sc := newScratch(p)
	st, x, err := sc.solve(p.lb, p.ub, 0)
	if err != nil || st != lpOptimal {
		t.Fatalf("root: st=%v err=%v", st, err)
	}
	if obj := model.ObjectiveValue(x[:n]); math.Abs(obj-float64(capacity)) > 1e-9 {
		t.Fatalf("root objective %.9f; want %d", obj, capacity)
	}

	lb := append([]float64(nil), p.lb...)
	ub := append([]float64(nil), p.ub...)
	warm := sc.snapshot()
	// Fix variables to 0 one at a time: each step forces the re-solve to pull
	// a replacement variable in across rows that are all tied at the cap.
	for step := 0; step < n-1; step++ {
		ub[step] = 0
		coldSt, coldX, err := solveLP(p, lb, ub, 0)
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		warmSt, warmX, err := sc.solveFrom(warm, lb, ub, 0)
		if err != nil {
			t.Fatalf("step %d warm: %v", step, err)
		}
		if warmSt != coldSt {
			t.Fatalf("step %d: warm status %v != cold %v", step, warmSt, coldSt)
		}
		if coldSt == lpOptimal {
			co := model.ObjectiveValue(coldX[:n])
			wo := model.ObjectiveValue(warmX[:n])
			if math.Abs(co-wo) > 1e-9 {
				t.Fatalf("step %d: warm objective %.9f != cold %.9f", step, wo, co)
			}
			want := math.Min(float64(capacity), float64(n-1-step))
			if math.Abs(co-want) > 1e-9 {
				t.Fatalf("step %d: objective %.9f; want %.0f", step, co, want)
			}
		}
		warm = sc.snapshot()
	}
	// The chain is n−1 re-solves over an m=5, n=17-column LP; anything past a
	// few hundred pivots means a degenerate loop only the budget cut short.
	if sc.stats.Iterations > 500 {
		t.Fatalf("degenerate chain took %d pivots; cycling suspected", sc.stats.Iterations)
	}
	if sc.stats.WarmHits == 0 {
		t.Fatal("degenerate chain never warm-started; dual path is dead")
	}
	t.Logf("stats: %+v", sc.stats)
}

// TestDualZeroRatioPivots forces the fully-degenerate corner: the tightened
// bound already sits at the optimal value, so every dual ratio ties at zero
// and the re-solve must still land exactly, without drifting or stalling.
func TestDualZeroRatioPivots(t *testing.T) {
	const n, capacity, dup = 8, 4, 4
	model := degenerateModel(n, capacity, dup)
	p := newLP(model)
	sc := newScratch(p)
	st, x, err := sc.solve(p.lb, p.ub, 0)
	if err != nil || st != lpOptimal {
		t.Fatalf("root: st=%v err=%v", st, err)
	}
	warm := sc.snapshot()
	lb := append([]float64(nil), p.lb...)
	ub := append([]float64(nil), p.ub...)
	// Fix every variable to its (integral) optimal value: the warm re-solve
	// starts optimal and degenerate at once.
	for j := 0; j < n; j++ {
		v := math.Round(x[j])
		lb[j], ub[j] = v, v
	}
	warmSt, warmX, err := sc.solveFrom(warm, lb, ub, 0)
	if err != nil || warmSt != lpOptimal {
		t.Fatalf("warm: st=%v err=%v", warmSt, err)
	}
	if obj := model.ObjectiveValue(warmX[:n]); math.Abs(obj-float64(capacity)) > 1e-9 {
		t.Fatalf("objective %.9f; want %d", obj, capacity)
	}
}
