package milp

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// randMILP builds a seeded random mixed model with a couple of coupling
// constraints, giving branch-and-bound trees several levels deep.
func randMILP(seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	m := &Model{}
	n := 8 + r.Intn(8)
	terms1 := make([]Term, 0, n)
	terms2 := make([]Term, 0, n)
	for i := 0; i < n; i++ {
		var v VarID
		switch r.Intn(3) {
		case 0:
			v = m.AddVar(Binary, 0, 1, 1+r.Float64()*9)
		case 1:
			v = m.AddVar(Integer, 0, float64(1+r.Intn(4)), 1+r.Float64()*5)
		default:
			v = m.AddVar(Continuous, 0, 2, r.Float64()*3)
		}
		terms1 = append(terms1, Term{v, 1 + r.Float64()*4})
		terms2 = append(terms2, Term{v, r.Float64() * 3})
	}
	m.AddConstraint(terms1, LE, float64(n)*1.5)
	m.AddConstraint(terms2, LE, float64(n))
	return m
}

// A solve is one serial search; the only concurrency is between the parts of
// a SolveEach (or SolveParts) call, which its workers — up to GOMAXPROCS, the
// caller one of them — solve side by side. The tests below hold a lone solve
// and parts solved side by side to the same promises.

// atLeastTwoProcs lets a test's parts run at once on any machine: with
// GOMAXPROCS 1 a SolveEach has one worker, the caller.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// solveSideBySide solves the parts as one SolveEach call on a shared
// WorkspaceList (run it under -race) and returns each part's solution.
func solveSideBySide(t *testing.T, parts []Part, opts Options) []*Solution {
	t.Helper()
	var l WorkspaceList
	_, sols, err := l.SolveEach(parts, opts, new(Solution), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sol := range sols {
		if sol == nil {
			t.Fatalf("part %d: no solution", i)
		}
	}
	return sols
}

// modelParts wraps models as SolveEach parts.
func modelParts(models ...*Model) []Part {
	parts := make([]Part, len(models))
	for i, m := range models {
		parts[i] = Part{Model: m}
	}
	return parts
}

// TestParallelMatchesSerialObjective: a model solved as one of twenty parts
// side by side searches exactly as it does alone — the same status, values,
// nodes and LP work.
func TestParallelMatchesSerialObjective(t *testing.T) {
	atLeastTwoProcs(t)
	var models []*Model
	for seed := int64(0); seed < 20; seed++ {
		models = append(models, randMILP(seed))
	}
	sols := solveSideBySide(t, modelParts(models...), Options{})
	for seed, par := range sols {
		alone, err := solveAccounted(t, randMILP(int64(seed)), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if par.Status != alone.Status || par.Objective != alone.Objective || par.Nodes != alone.Nodes || par.LP != alone.LP || !reflect.DeepEqual(par.Values, alone.Values) {
			t.Errorf("seed %d: side by side %v obj %.9f nodes %d LP %+v; alone %v %.9f %d %+v",
				seed, par.Status, par.Objective, par.Nodes, par.LP, alone.Status, alone.Objective, alone.Nodes, alone.LP)
		}
	}
}

// TestDeterministicParallelValues solves the same models ten times, alone and
// side by side; every run must return byte-identical Values.
func TestDeterministicParallelValues(t *testing.T) {
	atLeastTwoProcs(t)
	opts := Options{Gap: 0.05}
	var ref []*Solution
	for run := 0; run < 10; run++ {
		var models []*Model
		for seed := int64(0); seed < 4; seed++ {
			models = append(models, randMILP(seed))
		}
		sols := solveSideBySide(t, modelParts(models...), opts)
		for seed := range models {
			alone, err := solveAccounted(t, randMILP(int64(seed)), opts)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			sols = append(sols, alone)
		}
		if ref == nil {
			ref = sols
			continue
		}
		for i, sol := range sols {
			if sol.Objective != ref[i].Objective || sol.Bound != ref[i].Bound || sol.Nodes != ref[i].Nodes || !reflect.DeepEqual(sol.Values, ref[i].Values) {
				t.Fatalf("run %d solve %d: (obj,bound,nodes)=(%v,%v,%d) or Values differ from run 0 (%v,%v,%d)",
					run, i, sol.Objective, sol.Bound, sol.Nodes, ref[i].Objective, ref[i].Bound, ref[i].Nodes)
			}
		}
	}
}

// TestParallelGapBoundInvariant re-runs the bound invariant on gap-limited
// parts solved side by side: none may report a bound tighter than its true
// optimum.
func TestParallelGapBoundInvariant(t *testing.T) {
	var models []*Model
	for seed := int64(0); seed < 12; seed++ {
		models = append(models, randKnapsack(seed))
	}
	sols := solveSideBySide(t, modelParts(models...), Options{Gap: 0.2})
	for seed, sol := range sols {
		exact, err := solveAccounted(t, randKnapsack(int64(seed)), Options{})
		if err != nil || exact.Status != StatusOptimal {
			t.Fatalf("seed %d: exact solve failed: %v %v", seed, exact, err)
		}
		if sol.Bound < exact.Objective-1e-6 {
			t.Errorf("seed %d: Bound %.6f tighter than optimum %.6f", seed, sol.Bound, exact.Objective)
		}
		if sol.Gap() > 0.2+1e-9 {
			t.Errorf("seed %d: achieved gap %.4f exceeds requested 0.2", seed, sol.Gap())
		}
	}
}

// TestParallelWithHeuristic exercises the heuristic path, alone and from parts
// solved side by side (the STRL compiler's rounding runs on one Compiled from
// every component of a cycle at once).
func TestParallelWithHeuristic(t *testing.T) {
	heurFor := func(m *Model) func([]float64) []float64 {
		return func(relax []float64) []float64 {
			cand := make([]float64, len(relax))
			for i, v := range m.Vars {
				if v.Type == Continuous {
					cand[i] = relax[i]
				}
			}
			return cand // all-integers-zero: feasible for these ≤ models
		}
	}
	var parts []Part
	for seed := int64(0); seed < 6; seed++ {
		m := randMILP(seed)
		parts = append(parts, Part{Model: m, Heuristic: heurFor(m)})
	}
	sols := solveSideBySide(t, parts, Options{})
	for seed, par := range sols {
		m := randMILP(int64(seed))
		alone, err := solveAccounted(t, m, Options{Heuristic: heurFor(m)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exact, err := solveAccounted(t, randMILP(int64(seed)), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if par.Objective != alone.Objective || par.Nodes != alone.Nodes {
			t.Errorf("seed %d: side by side objective %.9f in %d nodes, alone %.9f in %d", seed, par.Objective, par.Nodes, alone.Objective, alone.Nodes)
		}
		if diff := alone.Objective - exact.Objective; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("seed %d: objective %.9f with the heuristic, %.9f without", seed, alone.Objective, exact.Objective)
		}
	}
}

// TestParallelTimeLimit: a work budget that cuts the searches off cuts each at
// the same place alone and side by side — the same status, Values, nodes and
// LP work — because it counts LP work, not time.
func TestParallelTimeLimit(t *testing.T) {
	const budget = 100
	opts := Options{TimeLimit: time.Second / workPerSecond * budget}
	seeds := []int64{4, 5, 9}
	sols := solveSideBySide(t, modelParts(randMILP(4), randMILP(5), randMILP(9)), opts)
	for i, par := range sols {
		alone, err := solveAccounted(t, randMILP(seeds[i]), opts)
		if err != nil {
			t.Fatal(err)
		}
		if par.Status == StatusOptimal { // at gap 0 only a search run to the end is optimal
			t.Fatalf("seed %d: optimal after %d units; the budget cuts nothing off", seeds[i], par.LP.work())
		}
		if par.Status != alone.Status || par.Nodes != alone.Nodes || par.LP != alone.LP || !reflect.DeepEqual(par.Values, alone.Values) {
			t.Errorf("seed %d: side by side %v nodes %d LP %+v; alone %v %d %+v",
				seeds[i], par.Status, par.Nodes, par.LP, alone.Status, alone.Nodes, alone.LP)
		}
	}
}

// TestParallelMaxNodes: the node limit is exact, alone and side by side.
func TestParallelMaxNodes(t *testing.T) {
	opts := Options{MaxNodes: 3}
	alone, err := solveAccounted(t, randMILP(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	sols := solveSideBySide(t, modelParts(randMILP(5), randMILP(5), randMILP(5)), opts)
	for i, sol := range append(sols, alone) {
		if sol.Nodes != 3 {
			t.Errorf("solve %d: explored %d nodes, limit 3 and the tree is larger", i, sol.Nodes)
		}
	}
}

// --- Warm-start seeding (Options.InitialSolution) ---

// warmStartModel is a knapsack with a known feasible-but-suboptimal seed.
func warmStartModel() (*Model, []float64) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 5)
	y := m.AddVar(Binary, 0, 1, 4)
	z := m.AddVar(Binary, 0, 1, 3)
	m.AddConstraint([]Term{{x, 2}, {y, 2}, {z, 2}}, LE, 4)
	return m, []float64{0, 0, 1} // objective 3; optimum is x+y = 9
}

// TestWarmStartFeasibleSeedSurvivesRootAbort: when the root relaxation is
// aborted (expired deadline), a feasible InitialSolution is returned as the
// incumbent instead of NoSolution.
func TestWarmStartFeasibleSeedSurvivesRootAbort(t *testing.T) {
	m, seed := warmStartModel()
	sol, err := solveAccounted(t, m, Options{TimeLimit: time.Nanosecond, InitialSolution: seed})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusFeasible {
		t.Fatalf("status = %v, want feasible (seed incumbent)", sol.Status)
	}
	if sol.Objective != 3 {
		t.Fatalf("objective = %v, want the seed's 3", sol.Objective)
	}
	for i, v := range seed {
		if sol.Values[i] != v {
			t.Fatalf("Values[%d] = %v, want seed value %v", i, sol.Values[i], v)
		}
	}
}

// TestWarmStartInfeasibleSeedRejected: an infeasible seed must be silently
// dropped — with no time to search, that means NoSolution, never a bogus
// incumbent.
func TestWarmStartInfeasibleSeedRejected(t *testing.T) {
	m, _ := warmStartModel()
	bad := []float64{1, 1, 1} // weight 6 > cap 4
	sol, err := solveAccounted(t, m, Options{TimeLimit: time.Nanosecond, InitialSolution: bad})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusNoSolution {
		t.Fatalf("status = %v, want no-solution (infeasible seed rejected)", sol.Status)
	}
	if sol.Values != nil {
		t.Fatalf("Values = %v, want nil", sol.Values)
	}
}

// TestSeedCannotChangeProperty pins the proof the class table replays on
// (Solution.SeedCannotChange): wherever a solution says a seed cannot change
// it, a solve from that seed returns it — the same status, objective, bound and
// values bit for bit, the same nodes and LP work. On 240 seeded random packing
// models of the fuzz generator's shape, a quarter of them minimizing, each is
// solved without a seed and from six 0/1 seeds (sparse random ones, mostly
// infeasible; greedy ones that respect every ≤ row, some stopped early so
// the root rounding beats them), under four option sets — the scheduler's gap,
// exact, a rounding callback, and a budget that cuts the root
// off — and every solution is asked about every seed. Both bars must occur: the
// settled one no seed beats (an integral or infeasible root) and a finite one
// a feasible seed falls strictly below.
func TestSeedCannotChangeProperty(t *testing.T) {
	threshold := func(x []float64) []float64 {
		for i, v := range x {
			x[i] = 0
			if v >= 0.3 {
				x[i] = 1
			}
		}
		return x
	}
	optionSets := []Options{
		{Gap: 0.1},
		{},
		{Gap: 0.1, Heuristic: threshold},
		{TimeLimit: time.Nanosecond},
	}
	settledBars, finiteBars, beaten, checks := 0, 0, 0, 0
	for seed := int64(0); seed < 240; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 48)
		r.Read(data)
		in := fuzzInput(data)
		m := fuzzModel(&in)
		if seed%4 == 3 { // a minimization: maximize the negated objective
			for v := range m.Vars {
				m.Vars[v].Obj = -m.Vars[v].Obj
			}
		}
		seeds := [][]float64{nil}
		for k := 0; k < 6; k++ {
			seeds = append(seeds, randomSeed(r, m, k%3))
		}
		for oi, opts := range optionSets {
			sols := make([]*Solution, len(seeds))
			for i, sd := range seeds {
				o := opts
				o.InitialSolution = sd
				sol, err := Solve(m, o)
				if err != nil {
					t.Fatal(err)
				}
				sols[i] = sol
			}
			for a, sa := range sols {
				if sa.bar.ok && math.IsInf(sa.bar.obj, 0) && better(sa.bar.obj, 0) {
					settledBars++
				} else if sa.bar.ok && !math.IsInf(sa.bar.obj, 0) {
					finiteBars++
				}
				for b, sb := range seeds {
					if !sa.SeedCannotChange(m, sb) {
						continue
					}
					checks++
					if sb != nil && m.IsFeasible(sb, 1e-6) && !math.IsInf(sa.bar.obj, 0) {
						beaten++
					}
					if !sameAnswer(sa, sols[b]) {
						t.Fatalf("model %d, options %d: solved from seed %d: %+v (bar %+v); from seed %d, which it says cannot change that: %+v\nseed %v\n%s",
							seed, oi, a, sa, sa.bar, b, sols[b], sb, m)
					}
				}
			}
		}
	}
	t.Logf("%d settled bars, %d finite bars, %d feasible seeds below a finite bar, %d checks", settledBars, finiteBars, beaten, checks)
	if settledBars == 0 || finiteBars == 0 || beaten == 0 {
		t.Fatalf("%d settled bars, %d finite bars, %d feasible seeds below a finite bar: the property was not exercised", settledBars, finiteBars, beaten)
	}
}

// randomSeed draws a 0/1 point for m: kind 0 sets each variable with
// probability 0.3; kind 1 sets variables in random order while every packing
// row (a ≤ row with a non-negative right-hand side; not fuzzModel's demand
// row) still holds; kind 2 does the same but stops at a random count.
func randomSeed(r *rand.Rand, m *Model, kind int) []float64 {
	x := make([]float64, len(m.Vars))
	if kind == 0 {
		for i := range x {
			if r.Float64() < 0.3 {
				x[i] = 1
			}
		}
		return x
	}
	stop := len(x)
	if kind == 2 {
		stop = r.Intn(len(x) + 1)
	}
	for _, i := range r.Perm(len(x))[:stop] {
		x[i] = 1
		for _, c := range m.Cons {
			lhs := 0.0
			for _, t := range c.Terms {
				lhs += t.Coef * x[t.Var]
			}
			if c.Op == LE && c.RHS >= 0 && lhs > c.RHS+1e-9 {
				x[i] = 0
				break
			}
		}
	}
	return x
}

// TestWarmStartSeedBeatsGap: a feasible seed already within the gap lets a
// full solve terminate immediately on it.
func TestWarmStartSeedAdoptedAsIncumbent(t *testing.T) {
	m, seed := warmStartModel()
	sol, err := solveAccounted(t, m, Options{InitialSolution: seed, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With the node budget exhausted at the root, the returned incumbent is
	// either the seed or something the root heuristics improved past it.
	if sol.Objective < 3 {
		t.Fatalf("objective = %v, seed incumbent (3) was lost", sol.Objective)
	}
}
