package milp

import (
	"math"
	"testing"
)

// TestPresolveSingletonAndPropagation: a one-term row is a row like any other
// to presolve, which leaves it for the LP; 2x ≤ 1 over an integer x still
// holds x at 0, and the coupled row then gives y its 7.
func TestPresolveSingletonAndPropagation(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Integer, 0, 10, 1)
	y := m.AddVar(Integer, 0, 10, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 7)
	m.AddConstraint([]Term{{x, 2}}, LE, 1)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Objective != 7 || sol.Values[0] != 0 || sol.Values[1] != 7 {
		t.Errorf("solve: status %v objective %v values %v, want optimal 7 [0 7]", sol.Status, sol.Objective, sol.Values)
	}
}

// TestPresolveDedup: identical ≤-rows merge keeping the smallest RHS.
func TestPresolveDedup(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 1)
	y := m.AddVar(Binary, 0, 1, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 2)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 3)
	pre := Presolve(m)
	if pre.Infeasible {
		t.Fatal("feasible model declared infeasible")
	}
	if pre.Model.NumConstraints() != 1 {
		t.Fatalf("reduced model has %d rows, want 1", pre.Model.NumConstraints())
	}
	if rhs := pre.Model.Cons[0].RHS; rhs != 1 {
		t.Errorf("merged RHS = %v, want the tightest (1)", rhs)
	}
}

// TestPresolveDedupEQConflict: identical =-rows with different RHS prove
// infeasibility.
func TestPresolveDedupEQConflict(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 1)
	y := m.AddVar(Binary, 0, 1, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 2)
	if pre := Presolve(m); !pre.Infeasible {
		t.Error("conflicting duplicate equalities not detected as infeasible")
	}
}

// TestPresolveCliqueDomination: a set-packing row whose literals are a subset
// of another packing row's is implied by it and dropped.
func TestPresolveCliqueDomination(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 1)
	y := m.AddVar(Binary, 0, 1, 1)
	z := m.AddVar(Binary, 0, 1, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}, {z, 1}}, LE, 1)
	pre := Presolve(m)
	if pre.Infeasible {
		t.Fatal("feasible model declared infeasible")
	}
	if pre.Stats.CliquesMerged != 1 {
		t.Errorf("CliquesMerged = %d, want 1", pre.Stats.CliquesMerged)
	}
	if pre.Model.NumConstraints() != 1 {
		t.Errorf("reduced model has %d rows, want 1", pre.Model.NumConstraints())
	}
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 1 {
		t.Errorf("objective = %v, want 1 (at most one of x,y,z)", sol.Objective)
	}
}

// TestPresolveDualityFix: columns in no row go to the LP, which puts one with
// positive objective under maximize at its upper bound and one with negative
// objective at its lower bound.
func TestPresolveDualityFix(t *testing.T) {
	m := &Model{}
	m.AddVar(Integer, 0, 3, 2)
	m.AddVar(Integer, 0, 3, -2)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 6 || sol.Values[0] != 3 || sol.Values[1] != 0 {
		t.Errorf("objective %v values %v, want 6 [3 0]", sol.Objective, sol.Values)
	}
}

// TestPresolveObjConstAndLift: a singleton −x ≤ −1 that forces a column with
// objective weight is the LP's to honour: objective and bound both count the
// forced column, and the point is feasible in the model.
func TestPresolveObjConstAndLift(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 5)
	y := m.AddVar(Binary, 0, 1, 1)
	z := m.AddVar(Binary, 0, 1, 1)
	m.AddConstraint([]Term{{x, -1}}, LE, -1)
	m.AddConstraint([]Term{{y, 1}, {z, 1}}, EQ, 1)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Objective != 6 {
		t.Errorf("status %v objective %v, want optimal 6", sol.Status, sol.Objective)
	}
	if sol.Bound != 6 {
		t.Errorf("bound %v, want 6", sol.Bound)
	}
	if sol.Values[0] != 1 {
		t.Errorf("forced column not at 1: values %v", sol.Values)
	}
	if !m.IsFeasible(sol.Values, 1e-9) {
		t.Errorf("solution infeasible in the model: %v", sol.Values)
	}
}

// TestPresolveDetectsInfeasible: Solve reports −2x ≤ −3 over a binary
// infeasible. Presolve leaves the row to the LP, and the search proves it.
func TestPresolveDetectsInfeasible(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 1)
	m.AddConstraint([]Term{{x, -2}}, LE, -3)
	for _, off := range []bool{false, true} {
		sol, err := Solve(m, Options{DisablePresolve: off})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusInfeasible {
			t.Errorf("presolve off %v: solve status %v, want infeasible", off, sol.Status)
		}
	}
}

// TestPresolveIdentity: a model with nothing to reduce passes through
// untouched — same *Model pointer, zero stats.
func TestPresolveIdentity(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 5)
	y := m.AddVar(Binary, 0, 1, 4)
	z := m.AddVar(Binary, 0, 1, 3)
	m.AddConstraint([]Term{{x, 2}, {y, 2}, {z, 2}}, LE, 4)
	pre := Presolve(m)
	if pre.Model != m {
		t.Error("identity presolve did not alias the input model")
	}
	if pre.Stats.RowsDropped != 0 {
		t.Errorf("identity presolve reported work: %+v", pre.Stats)
	}
}

// TestPresolveInfiniteBounds: unbounded continuous columns must not poison
// the reductions — the coupled row stays, and the solve still finishes.
func TestPresolveInfiniteBounds(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Continuous, 0, Inf, -1)
	y := m.AddVar(Continuous, 0, Inf, -1)
	m.AddConstraint([]Term{{x, -1}, {y, -1}}, LE, -2) // x + y ≥ 2
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective+2) > 1e-9 {
		t.Errorf("status %v objective %v, want optimal -2", sol.Status, sol.Objective)
	}
}

// TestRowlessModelSolves: a model with no rows goes to the LP like any other,
// presolve on or off, and the root answers it: every column with positive
// objective at its upper bound under maximize, every other one at its lower
// bound (a zero objective may sit anywhere in its box), in one node.
func TestRowlessModelSolves(t *testing.T) {
	m := &Model{}
	m.AddVar(Integer, 0, 4, 3)
	m.AddVar(Integer, 1, 5, -2)
	m.AddVar(Integer, 0, 2, 0)
	m.AddVar(Binary, 0, 1, 1.5)
	m.AddVar(Continuous, 0, 2.5, 1)
	m.AddVar(Continuous, -1, 3, -0.5)
	want := 0.0
	for _, v := range m.Vars {
		if v.Obj > 0 {
			want += v.Obj * v.Ub
		} else {
			want += v.Obj * v.Lb
		}
	}
	for _, off := range []bool{false, true} {
		sol, err := Solve(m, Options{DisablePresolve: off})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-want) > 1e-9 || math.Abs(sol.Bound-want) > 1e-9 {
			t.Errorf("presolve off %v: status %v objective %v bound %v, want optimal %v", off, sol.Status, sol.Objective, sol.Bound, want)
		}
		if sol.Nodes != 1 {
			t.Errorf("presolve off %v: %d nodes, want 1 (the root)", off, sol.Nodes)
		}
		if !m.IsFeasible(sol.Values, 1e-9) {
			t.Errorf("presolve off %v: values %v outside their bounds", off, sol.Values)
		}
	}
}
