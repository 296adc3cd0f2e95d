package tetrisched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// leanModel fails the test for what a compiled model should no longer hold
// because presolve would only delete it: a cull row (an indicator pinned at 0,
// I ≤ 0), a variable that can only be 0, a job's indicator under its MAX root
// (which could only be 1: no objective, and its one row, Σ options − I ≤ 0,
// only pushes it up), or a row repeating an earlier one at a limit no smaller,
// as a supply row of a group could (internal/compiler's TestLeanLowering
// checks the same through the lowering records, on its own batches). A model
// is read through its indices alone: it carries no names.
func leanModel(t *testing.T, name string, m *milp.Model) {
	t.Helper()
	for i, v := range m.Vars {
		if v.Ub == 0 {
			t.Errorf("%s: variable x%d can only be 0", name, i)
		}
	}
	capped := make([]bool, len(m.Vars)) // some row bounds the variable from above
	var earlier []*milp.Constraint      // the LE rows so far
	for i := range m.Cons {
		con := &m.Cons[i]
		if len(con.Terms) == 1 && con.Terms[0].Coef > 0 && con.RHS == 0 {
			t.Errorf("%s: row c%d pins x%d at 0", name, i, con.Terms[0].Var)
		}
		for _, tm := range con.Terms {
			capped[tm.Var] = capped[tm.Var] || con.Op == milp.EQ || tm.Coef > 0
		}
		if con.Op != milp.LE {
			continue
		}
		for _, e := range earlier {
			if con.RHS >= e.RHS && slices.Equal(con.Terms, e.Terms) {
				t.Errorf("%s: row c%d repeats an earlier row at a limit no smaller", name, i)
			}
		}
		earlier = append(earlier, con)
	}
	for i, v := range m.Vars {
		if !capped[i] && v.Obj == 0 {
			t.Errorf("%s: x%d has no objective and no row bounds it from above: it could only be 1", name, i)
		}
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

// TestPresolveRowsAreCompiledRows: on batches of the scoreboard's shapes — GS
// HET traffic as one model, its natural components and the four-class cut the
// sharded scheduler makes, and resident blocks of deferring gangs — none of the
// reduced model's rows is a copy: each is a compiled row's own term array,
// because the compiler emits no zero coefficient.
func TestPresolveRowsAreCompiledRows(t *testing.T) {
	check := func(name string, m *milp.Model) {
		t.Helper()
		compiled := make(map[*milp.Term]bool, len(m.Cons))
		for i := range m.Cons {
			if len(m.Cons[i].Terms) > 0 {
				compiled[&m.Cons[i].Terms[0]] = true
			}
		}
		pre := milp.Presolve(m)
		if pre.Infeasible {
			t.Fatalf("%s: presolve calls a compiled model infeasible", name)
		}
		for i := range pre.Model.Cons {
			if con := &pre.Model.Cons[i]; len(con.Terms) == 0 || !compiled[&con.Terms[0]] {
				t.Fatalf("%s: reduced row c%d is not a compiled row's terms", name, i)
			}
		}
	}
	solves := 0
	checkAll := func(name string, comp *compiler.Compiled) {
		t.Helper()
		check(name, comp.Model)
		assign := make([]int, comp.Stats().Jobs)
		for j := range assign {
			assign[j] = j % 4
		}
		for _, comps := range [][]*compiler.Component{comp.Components(), comp.ForcedComponents(assign, 3)} {
			for ci, cc := range comps {
				check(fmt.Sprintf("%s, component %d of %d", name, ci, len(comps)), cc.Model)
			}
			solves += len(comps)
		}
	}
	for _, g := range []struct {
		jobs int
		seed int64
	}{{24, 1}, {60, 2}, {120, 3}} {
		exprs, opts := gshetBatch(t, g.jobs, g.seed)
		comp, err := compiler.Compile(exprs, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAll(fmt.Sprintf("GS HET batch of %d (seed %d)", g.jobs, g.seed), comp)
	}
	for churn := 0; churn <= 4; churn += 2 {
		exprs, opts := residentBatch(churn)
		comp, err := compiler.Compile(exprs, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAll(fmt.Sprintf("resident blocks with %d arrivals", churn), comp)
	}
	if solves < 100 {
		t.Fatalf("only %d component models checked", solves)
	}
}

// residentBatch is a cycle of the resident workloads at the compiler's level:
// eight blocks of eight nodes, busy for the first slice, each with nine
// deferring gangs offering ten consecutive starts, and the first arrivals
// blocks each with a short-deadline newcomer offering three.
func residentBatch(arrivals int) ([]strl.Expr, compiler.Options) {
	const blocks, width, horizon = 8, 8, 24
	n := blocks * width
	rel := make([]int64, n)
	var jobs []strl.Expr
	for b := 0; b < blocks; b++ {
		block := bitset.New(n)
		for i := b * width; i < (b+1)*width; i++ {
			block.Add(i)
			rel[i] = 1
		}
		starts := func(k int, count int64, value float64) strl.Expr {
			var kids []strl.Expr
			for s := int64(0); s < count; s++ {
				kids = append(kids, &strl.NCk{Set: block, K: k, Start: s, Dur: 3, Value: value - float64(s)})
			}
			return &strl.Max{Kids: kids}
		}
		for _, k := range [...]int{2, 3, 5, 7, 2, 3, 5, 7, 2} {
			jobs = append(jobs, starts(k, 10, 997))
		}
		if b < arrivals {
			jobs = append(jobs, starts(3, 3, 1500))
		}
	}
	return jobs, compiler.Options{Universe: n, Horizon: horizon, ReleaseAt: rel}
}
