package milp

import (
	"math"
	"testing"
)

// TestPresolveSingletonAndPropagation: singleton rows become bounds (with
// integer rounding) and are dropped, and what they fix propagates by
// substitution: the coupled row, left with one term, becomes a bound in turn,
// and the column it leaves in no row is fixed by duality.
func TestPresolveSingletonAndPropagation(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", Integer, 0, 10, 1)
	y := m.AddVar("y", Integer, 0, 10, 1)
	m.AddConstraint("cap", []Term{{x, 1}, {y, 1}}, LE, 7)
	m.AddConstraint("xcap", []Term{{x, 2}}, LE, 1)
	pre := Presolve(m)
	if pre.Infeasible {
		t.Fatal("feasible model declared infeasible")
	}
	if pre.Stats.VarsFixed != 2 || pre.Stats.RowsDropped != 2 || pre.Model.NumVars() != 0 {
		t.Errorf("stats %+v, %d vars left; want both columns fixed (2x ≤ 1 rounds to x = 0, then y ≤ 7) and both rows dropped",
			pre.Stats, pre.Model.NumVars())
	}
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Objective != 7 || sol.Values[0] != 0 || sol.Values[1] != 7 {
		t.Errorf("solve: status %v objective %v values %v, want optimal 7 [0 7]", sol.Status, sol.Objective, sol.Values)
	}
}

// TestPresolveDedup: identical ≤-rows merge keeping the smallest RHS, and a
// ≥-row mirroring a ≤-row merges through GE→LE normalization.
func TestPresolveDedup(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddConstraint("a", []Term{{x, 1}, {y, 1}}, LE, 2)
	m.AddConstraint("b", []Term{{x, 1}, {y, 1}}, LE, 1)
	m.AddConstraint("c", []Term{{x, -1}, {y, -1}}, GE, -1) // normalizes to x+y ≤ 1
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
	m := NewModel(Maximize)
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddConstraint("a", []Term{{x, 1}, {y, 1}}, EQ, 1)
	m.AddConstraint("b", []Term{{x, 1}, {y, 1}}, EQ, 2)
	if pre := Presolve(m); !pre.Infeasible {
		t.Error("conflicting duplicate equalities not detected as infeasible")
	}
}

// TestPresolveCliqueDomination: a set-packing row whose literals are a subset
// of another packing row's is implied by it and dropped.
func TestPresolveCliqueDomination(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	z := m.AddBinary("z", 1)
	m.AddConstraint("sub", []Term{{x, 1}, {y, 1}}, LE, 1)
	m.AddConstraint("super", []Term{{x, 1}, {y, 1}, {z, 1}}, LE, 1)
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

// TestPresolveDualityFix: an empty column with positive objective under
// maximize sits at its upper bound; negative objective at its lower bound.
func TestPresolveDualityFix(t *testing.T) {
	m := NewModel(Maximize)
	up := m.AddVar("up", Integer, 0, 3, 2)
	dn := m.AddVar("dn", Integer, 0, 3, -2)
	_ = up
	_ = dn
	pre := Presolve(m)
	if pre.Stats.VarsFixed != 2 || pre.Model.NumVars() != 0 {
		t.Fatalf("empty columns not fixed: %+v", pre.Stats)
	}
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 6 || sol.Values[0] != 3 || sol.Values[1] != 0 {
		t.Errorf("objective %v values %v, want 6 [3 0]", sol.Objective, sol.Values)
	}
}

// TestPresolveObjConstAndLift: a GE-singleton fixes a column with objective
// weight; the lifted solution restores the column's value and the objective
// constant on both objective and bound.
func TestPresolveObjConstAndLift(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 5)
	y := m.AddBinary("y", 1)
	z := m.AddBinary("z", 1)
	m.AddConstraint("force", []Term{{x, 1}}, GE, 1)
	m.AddConstraint("choose", []Term{{y, 1}, {z, 1}}, EQ, 1)
	pre := Presolve(m)
	if pre.Infeasible {
		t.Fatal("feasible model declared infeasible")
	}
	if pre.Stats.VarsFixed != 1 || pre.Model.NumVars() != 2 {
		t.Fatalf("want exactly x fixed: %+v, %d vars left", pre.Stats, pre.Model.NumVars())
	}
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Objective != 6 {
		t.Errorf("status %v objective %v, want optimal 6", sol.Status, sol.Objective)
	}
	if sol.Bound != 6 {
		t.Errorf("bound %v, want 6 (objective constant lifted into the bound)", sol.Bound)
	}
	if sol.Values[0] != 1 {
		t.Errorf("fixed column not restored: values %v", sol.Values)
	}
	if !m.IsFeasible(sol.Values, 1e-9) {
		t.Errorf("lifted point infeasible in the original model: %v", sol.Values)
	}
}

// TestPresolveDetectsInfeasible: presolve proves infeasibility before the
// solver runs, and Solve reports it with the presolve stats attached.
func TestPresolveDetectsInfeasible(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 1)
	m.AddConstraint("impossible", []Term{{x, 2}}, GE, 3)
	pre := Presolve(m)
	if !pre.Infeasible {
		t.Fatal("2x ≥ 3 over a binary not detected as infeasible")
	}
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Errorf("solve status %v, want infeasible", sol.Status)
	}
	if sol.Presolve.Rounds == 0 {
		t.Error("presolve stats missing from the infeasible solution")
	}
}

// TestPresolveRestrictLiftRoundtrip: point maps drop fixed columns on the way
// in and restore them on the way out; malformed seeds vanish (nil).
func TestPresolveRestrictLiftRoundtrip(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 5)
	y := m.AddBinary("y", 1)
	z := m.AddBinary("z", 1)
	m.AddConstraint("force", []Term{{x, 1}}, GE, 1)
	m.AddConstraint("choose", []Term{{y, 1}, {z, 1}}, EQ, 1)
	pre := Presolve(m)
	if pre.Model.NumVars() != 2 {
		t.Fatalf("want a 2-var reduced model, got %d", pre.Model.NumVars())
	}
	r := pre.restrictInto(nil, []float64{1, 0.25, 0.75})
	if len(r) != 2 || r[0] != 0.25 || r[1] != 0.75 {
		t.Errorf("restrictInto = %v, want [0.25 0.75]", r)
	}
	l := pre.liftInto(make([]float64, 3), r)
	if len(l) != 3 || l[0] != 1 || l[1] != 0.25 || l[2] != 0.75 {
		t.Errorf("liftInto = %v, want [1 0.25 0.75]", l)
	}
	if pre.restrictInto(nil, nil) != nil {
		t.Error("restrictInto(nil, nil) != nil")
	}
	if pre.restrictInto(nil, []float64{1}) != nil {
		t.Error("length-mismatched seed not rejected")
	}
}

// TestPresolveIdentity: a model with nothing to reduce passes through
// untouched — same *Model pointer, zero stats, passthrough point maps.
func TestPresolveIdentity(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 5)
	y := m.AddBinary("y", 4)
	z := m.AddBinary("z", 3)
	m.AddConstraint("cap", []Term{{x, 2}, {y, 2}, {z, 2}}, LE, 4)
	pre := Presolve(m)
	if pre.Model != m {
		t.Error("identity presolve did not alias the input model")
	}
	if pre.Stats.VarsFixed != 0 || pre.Stats.RowsDropped != 0 {
		t.Errorf("identity presolve reported work: %+v", pre.Stats)
	}
	seed := []float64{1, 1, 0}
	if r := pre.restrictInto(nil, seed); &r[0] != &seed[0] {
		t.Error("identity restrictInto did not pass the slice through")
	}
}

// TestPresolveInfiniteBounds: unbounded continuous columns must not poison
// the reductions — the coupled row stays, and the solve still finishes.
func TestPresolveInfiniteBounds(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar("x", Continuous, 0, Inf, 1)
	y := m.AddVar("y", Continuous, 0, Inf, 1)
	m.AddConstraint("need", []Term{{x, 1}, {y, 1}}, GE, 2)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Errorf("status %v objective %v, want optimal 2", sol.Status, sol.Objective)
	}
}
