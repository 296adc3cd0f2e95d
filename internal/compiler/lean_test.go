package compiler

import (
	"fmt"
	"slices"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// residentBlockBatch is one block of the resident workloads at the compiler's
// level: nine deferring gangs on the same eight nodes, busy for the first
// slice, each offering ten consecutive starts.
func residentBlockBatch() ([]strl.Expr, Options) {
	const n, horizon = 32, 24
	block := bitset.New(n)
	rel := make([]int64, n)
	for i := 0; i < 8; i++ {
		block.Add(i)
		rel[i] = 1
	}
	var jobs []strl.Expr
	for _, k := range [...]int{2, 3, 5, 7, 2, 3, 5, 7, 2} {
		var kids []strl.Expr
		for s := int64(0); s < 10; s++ {
			kids = append(kids, &strl.NCk{Set: block, K: k, Start: s, Dur: 3, Value: float64(997 - s)})
		}
		jobs = append(jobs, &strl.Max{Kids: kids})
	}
	return jobs, Options{Universe: n, Horizon: horizon, ReleaseAt: rel}
}

// checkLean fails the test for anything in c's model a solver could only
// delete: a variable that can only be 0, an indicator under a choice root
// (which could only be 1), a supply row repeating an earlier one of its group
// at a limit no smaller. It reads the model through the lowering records: a
// job's variables are the range from its record to the next job's, as many as
// jobSize counts, and the supply rows are the ones after all the jobs' rows.
func checkLean(t *testing.T, name string, c *Compiled) {
	t.Helper()
	m := c.Model
	rowLo := 0
	for j := range c.jobs {
		for i, rec := range c.jobLeaves(j) {
			switch {
			case rec.culled && (rec.ind != noVar || rec.partN != 0 || rec.single):
				t.Errorf("%s: culled leaf %d of job %d has variables", name, i, j)
			case !rec.culled && (rec.ind < 0 || int(rec.ind) >= m.NumVars()):
				t.Errorf("%s: live leaf %d of job %d has indicator %d", name, i, j, rec.ind)
			}
		}
		vars, rows := jobSize(c, j)
		if got := c.job[j+1].varLo - c.job[j].varLo; got != vars {
			t.Errorf("%s: job %d has %d variables, its lowering needs %d", name, j, got, vars)
		}
		rowLo += rows
	}
	for i, v := range m.Vars {
		if v.Ub == 0 {
			t.Errorf("%s: variable x%d can only be 0", name, i)
		}
	}
	if rowLo > m.NumConstraints() {
		t.Fatalf("%s: %d rows, but the jobs alone lower to %d", name, m.NumConstraints(), rowLo)
	}
	groupOf := map[milp.VarID]int{} // a supply term's variable → the group it draws on
	for i := range c.leaves {
		rec := &c.leaves[i]
		if rec.single {
			groupOf[rec.ind] = rec.group
		}
		for _, pv := range c.partsOf(rec) {
			groupOf[pv.id] = pv.group
		}
	}
	supply := map[int][]int{} // group → its supply rows, in emission order
	for i := rowLo; i < len(m.Cons); i++ {
		con := &m.Cons[i]
		if con.Op != milp.LE || len(con.Terms) == 0 || slices.ContainsFunc(con.Terms, func(tm milp.Term) bool { return tm.Coef <= 0 }) {
			t.Errorf("%s: row c%d is no supply row", name, i)
			continue
		}
		g := groupOf[con.Terms[0].Var]
		for _, e := range supply[g] {
			if con.RHS >= m.Cons[e].RHS && slices.Equal(con.Terms, m.Cons[e].Terms) {
				t.Errorf("%s: supply row c%d repeats c%d at a limit no smaller", name, i, e)
			}
		}
		supply[g] = append(supply[g], i)
	}
}

// jobSize counts the variables and rows the lowering of job j needs, from its
// leaf records alone: a choice root has no indicator of its own and a row only
// over two live children or more; any other live root has an indicator.
func jobSize(c *Compiled, j int) (vars, rows int) {
	leaf := c.job[j].leafLo
	var kids []strl.Expr
	switch x := c.jobs[j].(type) {
	case *strl.Max:
		kids = x.Kids
	case *strl.Sum:
		kids = x.Kids
	default:
		if v, r, live := lowerSize(c, x, &leaf); live {
			return v + 1, r
		}
		return 0, 0
	}
	vars, rows, n := choiceSize(c, kids, &leaf)
	if n > 1 {
		rows++
	}
	return vars, rows
}

// choiceSize counts the variables and rows of a MAX's or SUM's live children,
// an indicator each included, but not the row tying them together; n is how
// many are live.
func choiceSize(c *Compiled, kids []strl.Expr, leaf *int) (vars, rows, n int) {
	for _, kid := range kids {
		if v, r, live := lowerSize(c, kid, leaf); live {
			vars, rows, n = vars+1+v, rows+r, n+1
		}
	}
	return vars, rows, n
}

// lowerSize counts the variables and rows gen lowers expr to under an
// indicator it is given, and reports whether expr is lowered at all; *leaf is
// the record of expr's first leaf, and is moved past its last.
func lowerSize(c *Compiled, expr strl.Expr, leaf *int) (vars, rows int, live bool) {
	switch x := expr.(type) {
	case *strl.NCk, *strl.LnCk:
		rec := &c.leaves[*leaf]
		*leaf++
		switch {
		case rec.culled:
			return 0, 0, false
		case rec.single:
			return 0, 0, true
		}
		return rec.partN, 1, true // and the demand row
	case *strl.Max:
		v, r, n := choiceSize(c, x.Kids, leaf)
		return v, r + 1, n > 0 // and Σ I_i − I ≤ 0
	case *strl.Sum:
		v, r, n := choiceSize(c, x.Kids, leaf)
		return v, r + 1, n > 0 // and Σ I_i − n·I ≤ 0
	case *strl.Min:
		vars, rows, live = 1, len(x.Kids), true // V, and V ≤ f_i for each child
		for _, kid := range x.Kids {
			v, r, l := lowerSize(c, kid, leaf)
			vars, rows, live = vars+v, rows+r, live && l
		}
		if !live {
			return 0, 0, false
		}
		return vars, rows, true
	case *strl.Scale:
		return lowerSize(c, x.Kid, leaf)
	case *strl.Barrier:
		v, r, l := lowerSize(c, x.Kid, leaf)
		return v, r + 1, l // and v·I ≤ f
	}
	panic(fmt.Sprintf("lowerSize: %T", expr))
}

// TestLeanLowering: the compiler emits nothing a solver could only delete —
// no variable or row for a leaf it knows to be infeasible, one supply row
// where consecutive slices would repeat it — and at most 2 % of its rows are
// implied by another row (impliedRows). The goldens are the objective, node
// count and simplex iterations of a solve to the scheduler's gap.
func TestLeanLowering(t *testing.T) {
	for _, g := range []struct {
		jobs      int
		seed      int64
		objective float64
		nodes     int
		iters     int64
	}{
		{12, 1, 77.831962306040637, 7, 189},
		{12, 2, 44.297040615012804, 40, 683},
		{12, 3, 82.903886950864532, 155, 2402},
		{12, 4, 56.459779324935916, 225, 2622},
		{12, 5, 76.125198730497388, 8, 110},
		{12, 6, 57.99485059721345, 230, 4411},
		{12, 7, 50.692035400939062, 24, 388},
		{12, 8, 64.003742956713538, 127, 2686},
		{30, 1, 100.82516177569889, 439, 9557},
		{30, 5, 130.45305499146542, 124, 2887},
		{30, 6, 114.07260897844279, 239, 3225},
		{30, 7, 109.5710416454673, 138, 1566},
		{0, 0, 6954, 1, 37}, // the resident block
	} {
		name := fmt.Sprintf("cycleBatch(%d, %d)", g.seed, g.jobs)
		jobs, opts := residentBlockBatch()
		if g.jobs > 0 {
			jobs, opts = cycleBatch(g.seed, g.jobs)
		} else {
			name = "resident block"
		}
		c, err := Compile(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkLean(t, name, c)
		if st := c.Stats(); g.jobs > 0 && st.CulledLeafs == 0 {
			t.Errorf("%s: no leaf is culled; the batch checks nothing", name)
		}
		sol := solveToGap(t, c)
		if sol.Objective != g.objective || sol.Nodes != g.nodes || sol.LP.Iterations != g.iters {
			t.Errorf("%s: objective %.17g in %d nodes and %d iterations, want %.17g in %d and %d",
				name, sol.Objective, sol.Nodes, sol.LP.Iterations, g.objective, g.nodes, g.iters)
		}
		if implied := impliedRows(c.Model); 50*implied > c.Model.NumConstraints() {
			t.Errorf("%s: %d of %d rows are implied by another row", name, implied, c.Model.NumConstraints())
		}
	}
}

// impliedRows counts the rows of m that another row of m implies: a row
// repeating an earlier one's operator and terms, at any limit, and a
// set-packing row — Σ pos − Σ neg ≤ 1 − |neg| over binaries, "at most one of
// these literals" — whose literals all lie in another packing row (the larger
// row, or the later of two equal ones). A lean lowering leaves next to none.
func impliedRows(m *milp.Model) int {
	n := 0
	var packs [][]int // each packing row's literals, sorted: 2v is x_v = 1, 2v+1 is x_v = 0
	for i := range m.Cons {
		con := &m.Cons[i]
		if slices.ContainsFunc(m.Cons[:i], func(e milp.Constraint) bool {
			return e.Op == con.Op && slices.Equal(e.Terms, con.Terms)
		}) {
			n++
			continue
		}
		if lits := packingLits(m, con); lits != nil {
			packs = append(packs, lits)
		}
	}
	for i, a := range packs {
		for j, b := range packs {
			if j != i && (len(a) < len(b) || len(a) == len(b) && i < j) &&
				!slices.ContainsFunc(a, func(l int) bool { _, ok := slices.BinarySearch(b, l); return !ok }) {
				n++
				break
			}
		}
	}
	return n
}

// packingLits returns the sorted literals of a set-packing row, or nil.
func packingLits(m *milp.Model, con *milp.Constraint) []int {
	if con.Op != milp.LE || len(con.Terms) < 2 {
		return nil
	}
	lits, neg := make([]int, 0, len(con.Terms)), 0
	for _, tm := range con.Terms {
		v := &m.Vars[tm.Var]
		if v.Type == milp.Continuous || v.Lb != 0 || v.Ub != 1 || (tm.Coef != 1 && tm.Coef != -1) {
			return nil
		}
		l := 2 * int(tm.Var)
		if tm.Coef < 0 {
			l++
			neg++
		}
		lits = append(lits, l)
	}
	if con.RHS != float64(1-neg) {
		return nil
	}
	slices.Sort(lits)
	return lits
}

// TestDeadSubtreesAreSkipped: what needs a culled leaf is left out with it —
// a MIN, and through it the MAX child that owns its indicator — and the leaf
// records still line up with the tree for Decode and Seed.
func TestDeadSubtreesAreSkipped(t *testing.T) {
	n := 4
	live := func(start int64, v float64) *strl.NCk {
		return &strl.NCk{Set: full(n), K: 2, Start: start, Dur: 1, Value: v}
	}
	tooWide := &strl.NCk{Set: set(n, 0, 1), K: 2, Start: 0, Dur: 1, Value: 9}
	after := live(1, 3)
	jobs := []strl.Expr{
		&strl.Max{Kids: []strl.Expr{
			&strl.Min{Kids: []strl.Expr{live(0, 5), tooWide}}, // dead: tooWide cannot be had
			&strl.Min{Kids: []strl.Expr{live(0, 4), after}},
		}},
		tooWide, // a whole job with nothing to offer
	}
	rel := []int64{1, 0, 0, 0} // node 0 is busy now: {0, 1} has one node free
	c, err := Compile(jobs, Options{Universe: n, Horizon: 2, ReleaseAt: rel})
	if err != nil {
		t.Fatal(err)
	}
	checkLean(t, "dead MIN", c)
	if got := c.Stats().CulledLeafs; got != 3 {
		t.Errorf("%d leaves culled, want the dead MIN's two and the bare one", got)
	}
	if c.job[2].varLo-c.job[1].varLo != 0 {
		t.Errorf("the job with nothing to offer has %d variables, want none", c.job[2].varLo-c.job[1].varLo)
	}
	sol, err := milp.Solve(c.Model, milp.Options{})
	if err != nil || sol.Status != milp.StatusOptimal || sol.Objective != 3 {
		t.Fatalf("solve: %v %+v, want the live MIN's value 3", err, sol)
	}
	grants := c.Decode(sol)
	if len(grants) != 2 {
		t.Fatalf("grants %+v, want both leaves of the live MIN", grants)
	}
	if grants[0].Leaf != jobs[0].(*strl.Max).Kids[1].(*strl.Min).Kids[0] || grants[1].Leaf != strl.Expr(after) {
		t.Errorf("grants %+v name other leaves than the live MIN's", grants)
	}
	// Neither job can be seeded: the first is no MAX of leaves (its third leaf
	// is live), the second's only leaf is culled.
	for _, want := range [][]int32{{2, -1}, {-1, 0}} {
		for _, cc := range c.Components() {
			if vec := cc.Seed(nil, want); vec != nil {
				t.Errorf("Seed(%v) = %v, want none", want, vec)
			}
		}
	}
}
