package milp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func mustSolve(t *testing.T, m *Model, opts Options) *Solution {
	t.Helper()
	sol, err := Solve(m, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

// TestEmptyModelSolves: a model without variables — what a component of
// jobs with nothing to offer compiles to — is solved by the empty point,
// alone and as a part: Values is empty but not nil, the nil a solve returns
// when it has no solution.
func TestEmptyModelSolves(t *testing.T) {
	var opts Options
	sol := mustSolve(t, &Model{}, opts)
	if sol.Status != StatusOptimal || sol.Values == nil || len(sol.Values) != 0 {
		t.Errorf("%v with values %#v, want optimal with the empty point", sol.Status, sol.Values)
	}
	var list WorkspaceList
	merged, sols, err := list.SolveEach([]Part{{Model: &Model{}}}, opts, new(Solution), nil)
	if err != nil || merged.Status != StatusOptimal || sols[0].Values == nil {
		t.Errorf("a part without variables merges to %v (%v), values %#v", merged.Status, err, sols[0].Values)
	}
}

func TestPureLPMax(t *testing.T) {
	// maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 → x=4, y=0, obj 12.
	m := &Model{}
	x := m.AddVar(Continuous, 0, Inf, 3)
	y := m.AddVar(Continuous, 0, Inf, 2)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	m.AddConstraint([]Term{{x, 1}, {y, 3}}, LE, 6)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-12) > 1e-6 {
		t.Errorf("objective = %v, want 12", sol.Objective)
	}
	if math.Abs(sol.Values[x]-4) > 1e-6 || math.Abs(sol.Values[y]) > 1e-6 {
		t.Errorf("values = %v, want [4 0]", sol.Values)
	}
}

func TestPureLPMinWithGE(t *testing.T) {
	// minimize 2x + 3y s.t. x + y >= 10, x <= 6 → x=6, y=4, obj 24, written
	// as maximize −2x − 3y s.t. −x − y ≤ −10: obj −24.
	m := &Model{}
	x := m.AddVar(Continuous, 0, 6, -2)
	y := m.AddVar(Continuous, 0, Inf, -3)
	m.AddConstraint([]Term{{x, -1}, {y, -1}}, LE, -10)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective+24) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal -24", sol.Status, sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// maximize x + y s.t. x + y = 5, x <= 3, y <= 3.
	m := &Model{}
	x := m.AddVar(Continuous, 0, 3, 1)
	y := m.AddVar(Continuous, 0, 3, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 5", sol.Status, sol.Objective)
	}
}

func TestInfeasibleLP(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Continuous, 0, 1, 1)
	m.AddConstraint([]Term{{x, -1}}, LE, -2) // x ≥ 2
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasiblePhase1NeededMin(t *testing.T) {
	// ≥ rows (≤ rows with a negative right-hand side) force phase 1 (the
	// x=0 start is infeasible): min x+y, x+y>=4, x-y>=1 → x=2.5,y=1.5, obj 4,
	// written as max −x−y, −x−y ≤ −4, −x+y ≤ −1: obj −4.
	m := &Model{}
	x := m.AddVar(Continuous, 0, Inf, -1)
	y := m.AddVar(Continuous, 0, Inf, -1)
	m.AddConstraint([]Term{{x, -1}, {y, -1}}, LE, -4)
	m.AddConstraint([]Term{{x, -1}, {y, 1}}, LE, -1)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective+4) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal -4", sol.Status, sol.Objective)
	}
}

func TestUnboundedLP(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Continuous, 0, Inf, 1)
	y := m.AddVar(Continuous, 0, Inf, 0)
	m.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, 3)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// minimize x s.t. x >= -7 via constraint on a free variable, written as
	// maximize −x s.t. −x ≤ 7: obj 7.
	m := &Model{}
	x := m.AddVar(Continuous, math.Inf(-1), Inf, -1)
	m.AddConstraint([]Term{{x, -1}}, LE, 7)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-7) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 7", sol.Status, sol.Objective)
	}
}

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: weights 2,3,4,5; values 3,4,5,6; cap 5 → best 7 (items 0,1).
	m := &Model{}
	w := []float64{2, 3, 4, 5}
	v := []float64{3, 4, 5, 6}
	terms := make([]Term, 4)
	for i := 0; i < 4; i++ {
		id := m.AddVar(Binary, 0, 1, v[i])
		terms[i] = Term{id, w[i]}
	}
	m.AddConstraint(terms, LE, 5)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-7) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 7", sol.Status, sol.Objective)
	}
}

func TestIntegerGeneral(t *testing.T) {
	// maximize x + y, 2x + 3y <= 12, x,y integer in [0,4] → e.g. x=4,y=1, obj 5.
	m := &Model{}
	x := m.AddVar(Integer, 0, 4, 1)
	y := m.AddVar(Integer, 0, 4, 1)
	m.AddConstraint([]Term{{x, 2}, {y, 3}}, LE, 12)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 5", sol.Status, sol.Objective)
	}
	if math.Abs(sol.Values[x]-math.Round(sol.Values[x])) > 1e-6 {
		t.Errorf("x not integral: %v", sol.Values[x])
	}
}

func TestMILPInfeasible(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 1)
	y := m.AddVar(Binary, 0, 1, 1)
	m.AddConstraint([]Term{{x, -1}, {y, -1}}, LE, -2) // x + y ≥ 2
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestWarmStartIncumbent(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 5)
	y := m.AddVar(Binary, 0, 1, 4)
	m.AddConstraint([]Term{{x, 3}, {y, 3}}, LE, 3)
	seed := []float64{0, 1} // feasible, obj 4
	sol := mustSolve(t, m, Options{InitialSolution: seed})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 5", sol.Status, sol.Objective)
	}
	// An infeasible seed must be ignored, not crash.
	bad := []float64{1, 1}
	sol = mustSolve(t, m, Options{InitialSolution: bad})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("with bad seed: got %v obj %v", sol.Status, sol.Objective)
	}
}

func TestGapTermination(t *testing.T) {
	// With Gap=1.0 any incumbent within 100% of the bound is accepted.
	m := &Model{}
	n := 12
	terms := make([]Term, n)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		id := m.AddVar(Binary, 0, 1, 1+r.Float64()*10)
		terms[i] = Term{id, 1 + r.Float64()*5}
	}
	m.AddConstraint(terms, LE, 12)
	sol := mustSolve(t, m, Options{Gap: 1.0})
	if sol.Status != StatusOptimal { // "optimal within gap"
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Values == nil {
		t.Fatalf("no solution returned")
	}
	if !m.IsFeasible(sol.Values, 1e-6) {
		t.Fatalf("returned infeasible point")
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 1)
	m.AddConstraint([]Term{{x, 1}}, LE, 1)
	sol := mustSolve(t, m, Options{TimeLimit: time.Hour})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("trivial solve failed: %v %v", sol.Status, sol.Objective)
	}
}

func TestValidateErrors(t *testing.T) {
	m := &Model{}
	m.AddVar(Continuous, 2, 1, 0) // lb > ub
	if _, err := Solve(m, Options{}); err == nil {
		t.Errorf("expected validation error for lb>ub")
	}

	m2 := &Model{}
	m2.AddVar(Integer, 0, Inf, 1) // unbounded integer
	if _, err := Solve(m2, Options{}); err == nil {
		t.Errorf("expected validation error for unbounded integer")
	}

	m3 := &Model{}
	x := m3.AddVar(Continuous, 0, 1, 1)
	m3.AddConstraint([]Term{{x + 5, 1}}, LE, 1) // bad var id
	if _, err := Solve(m3, Options{}); err == nil {
		t.Errorf("expected validation error for bad var id")
	}
}

func TestEmptyModel(t *testing.T) {
	sol := mustSolve(t, &Model{}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("empty model status = %v", sol.Status)
	}
}

func TestMergeTerms(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Continuous, 0, 10, 1)
	m.AddConstraint([]Term{{x, 1}, {x, 2}}, LE, 6) // 3x <= 6
	sol := mustSolve(t, m, Options{})
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Errorf("merged-term objective = %v, want 2", sol.Objective)
	}
}

func TestModelString(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 2)
	y := m.AddVar(Integer, 0, 3, -1)
	m.AddConstraint([]Term{{x, 1}, {y, -2}}, LE, 4)
	s := m.String()
	for _, want := range []string{"maximize\n  2 x0 - x1\n", "c0: x0 - 2 x1 <= 4", "0 <= x1 <= 3  [integer]", "binary"} {
		if !contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// bruteForce enumerates all integer assignments of a pure-integer model and
// returns the best feasible objective, or NaN if infeasible.
func bruteForce(m *Model) float64 {
	vals := make([]float64, len(m.Vars))
	best := math.NaN()
	var rec func(i int)
	rec = func(i int) {
		if i == len(m.Vars) {
			if m.IsFeasible(vals, 1e-9) {
				obj := m.ObjectiveValue(vals)
				if math.IsNaN(best) || obj > best {
					best = obj
				}
			}
			return
		}
		for v := m.Vars[i].Lb; v <= m.Vars[i].Ub+1e-9; v++ {
			vals[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// randomIntModel builds a random small pure-integer model. Half of them are
// minimizations and a third of the rows ≥ rows, each written as the
// maximization of the negated objective and the ≤ row with both sides negated.
func randomIntModel(r *rand.Rand) *Model {
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	m := &Model{}
	nv := 2 + r.Intn(4) // 2..5 vars
	for i := 0; i < nv; i++ {
		typ := Integer
		ub := float64(1 + r.Intn(3))
		if r.Intn(2) == 0 {
			typ = Binary
			ub = 1
		}
		m.AddVar(typ, 0, ub, sign*float64(r.Intn(11)-5))
	}
	nc := 1 + r.Intn(4)
	for c := 0; c < nc; c++ {
		var terms []Term
		for i := 0; i < nv; i++ {
			if coef := r.Intn(7) - 3; coef != 0 {
				terms = append(terms, Term{VarID(i), float64(coef)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{0, 1}}
		}
		addRow(m, terms, r.Intn(3), float64(r.Intn(13)-4))
	}
	return m
}

// addRow adds Σ terms op rhs, with op numbered as the seeded generators and
// the fuzz decoders draw it: 0 is ≤; 1 is ≥, added as the ≤ row with both
// sides negated (the terms in place); 2 is =.
func addRow(m *Model, terms []Term, op int, rhs float64) {
	switch op {
	case 1:
		for i := range terms {
			terms[i].Coef = -terms[i].Coef
		}
		m.AddConstraint(terms, LE, -rhs)
	case 2:
		m.AddConstraint(terms, EQ, rhs)
	default:
		m.AddConstraint(terms, LE, rhs)
	}
}

func TestQuickMILPAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomIntModel(r)
		want := bruteForce(m)
		sol, err := Solve(m, Options{})
		if err != nil {
			t.Logf("seed %d: solve error %v\nmodel:\n%s", seed, err, m)
			return false
		}
		if math.IsNaN(want) {
			if sol.Status != StatusInfeasible {
				t.Logf("seed %d: want infeasible, got %v obj %v\nmodel:\n%s", seed, sol.Status, sol.Objective, m)
				return false
			}
			return true
		}
		if sol.Status != StatusOptimal {
			t.Logf("seed %d: want optimal, got %v\nmodel:\n%s", seed, sol.Status, m)
			return false
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Logf("seed %d: obj %v, brute force %v\nmodel:\n%s", seed, sol.Objective, want, m)
			return false
		}
		if !m.IsFeasible(sol.Values, 1e-6) {
			t.Logf("seed %d: returned infeasible point\nmodel:\n%s", seed, m)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate LP (multiple constraints active at origin).
	m := &Model{}
	x := m.AddVar(Continuous, 0, Inf, 0.75)
	y := m.AddVar(Continuous, 0, Inf, -150)
	z := m.AddVar(Continuous, 0, Inf, 0.02)
	w := m.AddVar(Continuous, 0, Inf, -6)
	// Beale's cycling example.
	m.AddConstraint([]Term{{x, 0.25}, {y, -60}, {z, -0.04}, {w, 9}}, LE, 0)
	m.AddConstraint([]Term{{x, 0.5}, {y, -90}, {z, -0.02}, {w, 3}}, LE, 0)
	m.AddConstraint([]Term{{z, 1}}, LE, 1)
	sol := mustSolve(t, m, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-0.05) > 1e-6 {
		t.Fatalf("Beale: got %v obj %v, want optimal 0.05", sol.Status, sol.Objective)
	}
	// Both ≤ 0 rows are tight at the origin, so the first pivot moves nothing.
	if sol.LP.Degenerate == 0 || sol.LP.Degenerate >= sol.LP.Iterations {
		t.Errorf("Beale: %d degenerate pivots in %d iterations, want some and fewer", sol.LP.Degenerate, sol.LP.Iterations)
	}

	// A vertex of this box is met by one row at a time: no pivot is degenerate.
	m = &Model{}
	x, y = m.AddVar(Continuous, 0, Inf, 1), m.AddVar(Continuous, 0, Inf, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 2}}, LE, 4)
	m.AddConstraint([]Term{{x, 3}, {y, 1}}, LE, 6)
	if sol := mustSolve(t, m, Options{}); sol.LP.Degenerate != 0 || sol.LP.Iterations < 2 {
		t.Errorf("a nondegenerate LP: %d degenerate pivots in %d iterations, want 0 in at least 2", sol.LP.Degenerate, sol.LP.Iterations)
	}
}

// TestLPStatsAddSumsEveryField: a counter added to LPStats is summed by Add,
// so a merged solve reports every counter of its parts.
func TestLPStatsAddSumsEveryField(t *testing.T) {
	var one, sum LPStats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(1)
	}
	sum.Add(&one)
	sum.Add(&one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if s.Field(i).Int() != 2 {
			t.Errorf("LPStats.%s: 1 + 1 sums to %d", s.Type().Field(i).Name, s.Field(i).Int())
		}
	}
}

func TestSolutionGap(t *testing.T) {
	s := &Solution{Objective: 90, Bound: 100}
	if g := s.Gap(); math.Abs(g-10.0/90.0) > 1e-12 {
		t.Errorf("gap = %v", g)
	}
}

func BenchmarkKnapsack30(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	m := &Model{}
	terms := make([]Term, 30)
	for i := range terms {
		id := m.AddVar(Binary, 0, 1, 1+r.Float64()*20)
		terms[i] = Term{id, 1 + r.Float64()*10}
	}
	m.AddConstraint(terms, LE, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(m, Options{Gap: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLP200(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	m := &Model{}
	n := 200
	ids := make([]VarID, n)
	for i := 0; i < n; i++ {
		ids[i] = m.AddVar(Continuous, 0, 10, r.Float64())
	}
	for c := 0; c < 80; c++ {
		var terms []Term
		for i := 0; i < n; i += 1 + r.Intn(10) {
			terms = append(terms, Term{ids[i], 1 + r.Float64()})
		}
		m.AddConstraint(terms, LE, 50+r.Float64()*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMaxNodesLimit(t *testing.T) {
	// A model the solver cannot finish in one node, with MaxNodes=2: must
	// still return its best incumbent with StatusFeasible or better.
	r := rand.New(rand.NewSource(21))
	m := &Model{}
	terms := make([]Term, 16)
	for i := range terms {
		id := m.AddVar(Binary, 0, 1, 1+r.Float64()*9)
		terms[i] = Term{id, 1 + r.Float64()*4}
	}
	m.AddConstraint(terms, LE, 20)
	sol := mustSolve(t, m, Options{MaxNodes: 2})
	if sol.Values == nil {
		t.Fatalf("no incumbent under MaxNodes limit (status %v)", sol.Status)
	}
	if !m.IsFeasible(sol.Values, 1e-6) {
		t.Fatalf("incumbent infeasible")
	}
}

func TestHeuristicCallback(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 5)
	y := m.AddVar(Binary, 0, 1, 4)
	m.AddConstraint([]Term{{x, 3}, {y, 3}}, LE, 4)
	called := false
	sol := mustSolve(t, m, Options{Heuristic: func(relax []float64) []float64 {
		called = true
		return []float64{1, 0} // feasible, objective 5 (optimal)
	}})
	if !called {
		t.Errorf("heuristic never invoked")
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-5) > 1e-9 {
		t.Errorf("got %v obj %v", sol.Status, sol.Objective)
	}
	// A garbage heuristic must be ignored.
	sol2 := mustSolve(t, m, Options{Heuristic: func(relax []float64) []float64 {
		return []float64{1, 1} // infeasible
	}})
	if sol2.Status != StatusOptimal || math.Abs(sol2.Objective-5) > 1e-9 {
		t.Errorf("bad heuristic corrupted solve: %v obj %v", sol2.Status, sol2.Objective)
	}
}

func TestTinyTimeLimit(t *testing.T) {
	// With a 1ns budget the solver must return promptly and safely.
	r := rand.New(rand.NewSource(31))
	m := &Model{}
	terms := make([]Term, 24)
	for i := range terms {
		id := m.AddVar(Binary, 0, 1, 1+r.Float64()*9)
		terms[i] = Term{id, 1 + r.Float64()*4}
	}
	m.AddConstraint(terms, LE, 30)
	sol, err := Solve(m, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Values != nil && !m.IsFeasible(sol.Values, 1e-6) {
		t.Fatalf("returned infeasible point under tiny time limit")
	}
}

// TestBoundDominatesObjective: the proven bound is never below the returned
// objective, and a StatusOptimal solve respects the gap.
func TestBoundDominatesObjective(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		m := &Model{}
		n := 8 + r.Intn(8)
		terms := make([]Term, n)
		for i := 0; i < n; i++ {
			id := m.AddVar(Binary, 0, 1, 1+r.Float64()*10)
			terms[i] = Term{id, 1 + r.Float64()*5}
		}
		m.AddConstraint(terms, LE, float64(n))
		gap := 0.05
		sol := mustSolve(t, m, Options{Gap: gap})
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if sol.Bound < sol.Objective-1e-6 {
			t.Fatalf("trial %d: bound %v below objective %v", trial, sol.Bound, sol.Objective)
		}
		if g := sol.Gap(); g > gap+1e-6 {
			t.Fatalf("trial %d: achieved gap %v exceeds %v", trial, g, gap)
		}
	}
}

// TestStressSchedulerLikeModels throws larger scheduler-shaped models (many
// binaries, supply rows, indicator chains) at the solver under a tight time
// budget: it must always return a feasible point or a clean status — never
// an error, panic, or infeasible "solution".
func TestStressSchedulerLikeModels(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := &Model{}
		nJobs := 20 + r.Intn(20)
		nSlices := 8 + r.Intn(8)
		capacity := float64(20 + r.Intn(40))
		supply := make([][]Term, nSlices)
		for j := 0; j < nJobs; j++ {
			job := m.AddVar(Binary, 0, 1, 0)
			opts := 2 + r.Intn(6)
			var kids []Term
			for o := 0; o < opts; o++ {
				k := float64(1 + r.Intn(8))
				v := 1 + r.Float64()*999
				ind := m.AddVar(Binary, 0, 1, v)
				kids = append(kids, Term{ind, 1})
				start := r.Intn(nSlices)
				dur := 1 + r.Intn(nSlices-start)
				for t := start; t < start+dur; t++ {
					supply[t] = append(supply[t], Term{ind, k})
				}
			}
			kids = append(kids, Term{job, -1})
			m.AddConstraint(kids, LE, 0)
		}
		for _, terms := range supply {
			if len(terms) > 0 {
				m.AddConstraint(terms, LE, capacity)
			}
		}
		sol, err := Solve(m, Options{Gap: 0.1, TimeLimit: 150 * time.Millisecond})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		switch sol.Status {
		case StatusOptimal, StatusFeasible:
			if !m.IsFeasible(sol.Values, 1e-6) {
				t.Fatalf("seed %d: returned infeasible point", seed)
			}
		case StatusNoSolution:
			// acceptable under the budget
		default:
			t.Fatalf("seed %d: unexpected status %v", seed, sol.Status)
		}
	}
}
