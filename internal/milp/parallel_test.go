package milp

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// randMILP builds a seeded random mixed model with a couple of coupling
// constraints, giving branch-and-bound trees deep enough to fill rounds of
// several nodes.
func randMILP(seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	m := NewModel(Maximize)
	n := 8 + r.Intn(8)
	terms1 := make([]Term, 0, n)
	terms2 := make([]Term, 0, n)
	for i := 0; i < n; i++ {
		var v VarID
		switch r.Intn(3) {
		case 0:
			v = m.AddBinary(fmt.Sprintf("b%d", i), 1+r.Float64()*9)
		case 1:
			v = m.AddVar(fmt.Sprintf("i%d", i), Integer, 0, float64(1+r.Intn(4)), 1+r.Float64()*5)
		default:
			v = m.AddVar(fmt.Sprintf("c%d", i), Continuous, 0, 2, r.Float64()*3)
		}
		terms1 = append(terms1, Term{v, 1 + r.Float64()*4})
		terms2 = append(terms2, Term{v, r.Float64() * 3})
	}
	m.AddConstraint("cap1", terms1, LE, float64(n)*1.5)
	m.AddConstraint("cap2", terms2, LE, float64(n))
	return m
}

// TestParallelMatchesSerialObjective runs exact solves of the same models with
// one worker and with four; both must agree on the optimal objective (the
// optimal point need not be unique).
func TestParallelMatchesSerialObjective(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		serial, err := solveAccounted(t, randMILP(seed), Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		if serial.Workers != 1 {
			t.Fatalf("seed %d: serial Workers = %d", seed, serial.Workers)
		}
		par, err := solveAccounted(t, randMILP(seed), Options{Workers: 4, SerialCutoff: -1})
		if err != nil {
			t.Fatalf("seed %d workers=4: %v", seed, err)
		}
		if par.Status != serial.Status {
			t.Errorf("seed %d: status %v, serial %v", seed, par.Status, serial.Status)
		}
		if diff := par.Objective - serial.Objective; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("seed %d: objective %.9f, serial %.9f", seed, par.Objective, serial.Objective)
		}
		if par.Workers != 4 {
			t.Errorf("seed %d: Workers = %d, want 4", seed, par.Workers)
		}
	}
}

// TestDeterministicParallelValues solves the same model ten times with four
// deterministic workers; every run must return byte-identical Values.
func TestDeterministicParallelValues(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		var ref *Solution
		for run := 0; run < 10; run++ {
			sol, err := solveAccounted(t, randMILP(seed), Options{Workers: 4, Deterministic: true, Gap: 0.05, SerialCutoff: -1})
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			if ref == nil {
				ref = sol
				continue
			}
			if sol.Objective != ref.Objective || sol.Bound != ref.Bound || sol.Nodes != ref.Nodes {
				t.Fatalf("seed %d run %d: (obj,bound,nodes)=(%v,%v,%d) differs from run 0 (%v,%v,%d)",
					seed, run, sol.Objective, sol.Bound, sol.Nodes, ref.Objective, ref.Bound, ref.Nodes)
			}
			if len(sol.Values) != len(ref.Values) {
				t.Fatalf("seed %d run %d: Values length drifted", seed, run)
			}
			for i := range sol.Values {
				if sol.Values[i] != ref.Values[i] {
					t.Fatalf("seed %d run %d: Values[%d] = %v, run 0 had %v", seed, run, i, sol.Values[i], ref.Values[i])
				}
			}
		}
	}
}

// TestParallelGapBoundInvariant re-runs the bound invariant with rounds of
// four: a gap-limited solve must never report a bound tighter than the true
// optimum.
func TestParallelGapBoundInvariant(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		exact, err := solveAccounted(t, randKnapsack(seed), Options{})
		if err != nil || exact.Status != StatusOptimal {
			t.Fatalf("seed %d: exact solve failed: %v %v", seed, exact, err)
		}
		sol, err := solveAccounted(t, randKnapsack(seed), Options{Workers: 4, Gap: 0.2, SerialCutoff: -1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Bound < exact.Objective-1e-6 {
			t.Errorf("seed %d: Bound %.6f tighter than optimum %.6f", seed, sol.Bound, exact.Objective)
		}
		if sol.Gap() > 0.2+1e-9 {
			t.Errorf("seed %d: achieved gap %.4f exceeds requested 0.2", seed, sol.Gap())
		}
	}
}

// TestParallelWithHeuristic exercises the concurrent heuristic-callback path
// (the STRL compiler's GreedyRound runs this way in production).
func TestParallelWithHeuristic(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randMILP(seed)
		heur := func(relax []float64) []float64 {
			cand := make([]float64, len(relax))
			for i, v := range m.Vars {
				if v.Type == Continuous {
					cand[i] = relax[i]
				}
			}
			return cand // all-integers-zero: feasible for these ≤ models
		}
		serial, err := solveAccounted(t, randMILP(seed), Options{Workers: 1, Heuristic: heur})
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		par, err := solveAccounted(t, randMILP(seed), Options{Workers: 4, Heuristic: heur, SerialCutoff: -1})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if diff := par.Objective - serial.Objective; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("seed %d: objective %.9f, serial %.9f", seed, par.Objective, serial.Objective)
		}
	}
}

// TestWorkersDefault checks Workers resolution: 0 means one worker per CPU.
func TestWorkersDefault(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 1)
	m.AddConstraint("c", []Term{{x, 1}}, LE, 1)
	sol, err := solveAccounted(t, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); sol.Workers != want {
		t.Fatalf("Workers = %d, want GOMAXPROCS = %d", sol.Workers, want)
	}
}

// TestParallelTimeLimit checks deadline handling with rounds of four: the
// search must stop promptly and still return the best incumbent found.
func TestParallelTimeLimit(t *testing.T) {
	start := time.Now()
	sol, err := solveAccounted(t, randMILP(3), Options{Workers: 4, TimeLimit: 50 * time.Millisecond, SerialCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("solve ran %v, deadline not honored", el)
	}
	if sol.Status != StatusOptimal && sol.Status != StatusFeasible {
		t.Fatalf("status = %v, want a solution", sol.Status)
	}
}

// TestParallelMaxNodes: the node limit is exact at every worker count — a
// round is filled only while nodes are left in the budget.
func TestParallelMaxNodes(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		sol, err := solveAccounted(t, randMILP(5), Options{Workers: workers, MaxNodes: 3, SerialCutoff: -1})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Nodes != 3 {
			t.Errorf("%d workers: explored %d nodes, limit 3 and the tree is larger", workers, sol.Nodes)
		}
	}
}

// --- Warm-start seeding (Options.InitialSolution) ---

// warmStartModel is a knapsack with a known feasible-but-suboptimal seed.
func warmStartModel() (*Model, []float64) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 5)
	y := m.AddBinary("y", 4)
	z := m.AddBinary("z", 3)
	m.AddConstraint("cap", []Term{{x, 2}, {y, 2}, {z, 2}}, LE, 4)
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
