package tetrisched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
)

// leanModel fails the test for what a compiled model should no longer hold
// because presolve would only delete it: a cull_ row, an indicator that can
// only be 0, or a supply row repeating an earlier one of its group at a limit
// no smaller (internal/compiler's TestLeanLowering checks the same, and the
// lowering records, on its own batches).
func leanModel(t *testing.T, name string, m *milp.Model) {
	t.Helper()
	for i, v := range m.Vars {
		// Only a partition variable may be bounded at 0 (compiler.genParts).
		if v.Ub == 0 && v.Type != milp.Integer {
			t.Errorf("%s: variable %s (#%d) can only be 0", name, v.Name.String(), i)
		}
	}
	supply := map[int][]*milp.Constraint{} // group → its supply rows, in emission order
	for i := range m.Cons {
		con := &m.Cons[i]
		rowName := con.Name.String()
		if strings.HasPrefix(rowName, "cull_") {
			t.Errorf("%s: row %s", name, rowName)
		}
		var g, slice int
		if n, _ := fmt.Sscanf(rowName, "supply_g%d_t%d", &g, &slice); n != 2 {
			continue
		}
		for _, earlier := range supply[g] {
			if con.RHS >= earlier.RHS && slices.Equal(con.Terms, earlier.Terms) {
				t.Errorf("%s: %s repeats %s at a limit no smaller", name, rowName, earlier.Name.String())
			}
		}
		supply[g] = append(supply[g], con)
	}
}

// TestLeanLowering runs the lean-model check over the GS HET batches of the
// model golden and the decomposition parity corpus, and pins what the solver
// makes of them — objective, nodes, simplex iterations, and the size of the
// presolved model — to the parent commit's, whose lowering still emitted a
// supply row per slice: presolve has next to nothing left to drop, and reaches
// the model it reached before.
func TestLeanLowering(t *testing.T) {
	opts := func(round func([]float64) []float64) milp.Options {
		return milp.Options{Gap: 0.1, Heuristic: round}
	}
	for _, g := range []struct {
		jobs             int
		seed             int64
		objective        float64
		iters            int64
		redVars, redRows int
	}{
		{24, 1, 436.39899638888892, 311, 1685, 423},
		{60, 2, 1128.6756866666669, 900, 4380, 868},
		{120, 3, 1587.8222351388886, 2674, 7382, 1188},
	} {
		name := fmt.Sprintf("GS HET batch of %d (seed %d)", g.jobs, g.seed)
		exprs, copts := gshetBatch(t, g.jobs, g.seed)
		comp, err := compiler.Compile(exprs, copts)
		if err != nil {
			t.Fatal(err)
		}
		leanModel(t, name, comp.Model)
		sol, err := milp.Solve(comp.Model, opts(comp.GreedyRound))
		if err != nil {
			t.Fatal(err)
		}
		pre := milp.Presolve(comp.Model)
		if sol.Objective != g.objective || sol.Nodes != 1 || sol.LP.Iterations != g.iters ||
			pre.Model.NumVars() != g.redVars || pre.Model.NumConstraints() != g.redRows {
			t.Errorf("%s: objective %.17g in %d nodes and %d iterations, presolved to %d×%d; want %.17g in 1 and %d, %d×%d",
				name, sol.Objective, sol.Nodes, sol.LP.Iterations, pre.Model.NumVars(), pre.Model.NumConstraints(),
				g.objective, g.iters, g.redVars, g.redRows)
		}
		if 50*pre.Stats.RowsDropped > comp.Model.NumConstraints() {
			t.Errorf("%s: presolve still drops %d of %d rows", name, pre.Stats.RowsDropped, comp.Model.NumConstraints())
		}
	}

	// The corpus of TestDecompositionParityProperty, summed.
	sum, nodes, iters, redVars, redRows, rows, dropped := 0.0, 0, int64(0), 0, 0, 0, 0
	for i := 0; i < 220; i++ {
		seed := int64(1000 + i)
		r := rand.New(rand.NewSource(seed))
		nBlocks := 2 + r.Intn(3)
		comp := decomposableModel(t, nBlocks, 1+r.Intn(3), seed)
		leanModel(t, fmt.Sprintf("parity instance %d", seed), comp.Model)
		sol, err := milp.Solve(comp.Model, opts(comp.GreedyRound))
		if err != nil {
			t.Fatal(err)
		}
		pre := milp.Presolve(comp.Model)
		sum, nodes, iters = sum+sol.Objective, nodes+sol.Nodes, iters+sol.LP.Iterations
		redVars, redRows = redVars+pre.Model.NumVars(), redRows+pre.Model.NumConstraints()
		rows, dropped = rows+comp.Model.NumConstraints(), dropped+pre.Stats.RowsDropped
	}
	if math.Abs(sum-7193.2440396354987) > 1e-9 || nodes != 244 || iters != 2812 || redVars != 7364 || redRows != 4302 {
		t.Errorf("parity corpus: objectives sum to %.17g in %d nodes and %d iterations, presolved to %d×%d; want 7193.2440396354987 in 244 and 2812, 7364×4302",
			sum, nodes, iters, redVars, redRows)
	}
	if 50*dropped > rows {
		t.Errorf("parity corpus: presolve still drops %d of %d rows", dropped, rows)
	}
}
