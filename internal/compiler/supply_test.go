package compiler

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// denseSupply is the supply emission the sweep replaced: a dense accumulator
// with a cell of terms per (group, slice), each of the batch's uses appended
// to the cell of every slice it spans, walked group-major then slice-major.
// It returns the rows AddConstraintNamed makes of the cells that can bind and
// repeat no kept cell at a limit no larger, ghosts set aside, with the job of
// each row's ghosts.
func denseSupply(c *Compiled) ([]milp.Constraint, [][]int32) {
	h := int(c.opts.Horizon)
	grid := make([][]milp.Term, len(c.Part.Groups)*h)
	for _, u := range c.scr.uses {
		for t := int(u.s); t < int(u.e); t++ {
			grid[int(u.group)*h+t] = append(grid[int(u.group)*h+t], u.term)
		}
	}
	m := milp.NewModel(milp.Maximize)
	m.Vars = c.Model.Vars
	var ghosts [][]int32
	for g := range c.Part.Groups {
		var kept []int
		for t := 0; t < h; t++ {
			cell, limit := grid[g*h+t], c.avail[g][t]
			var row []milp.Term
			var jobs []int32
			maxUse := 0.0
			for _, tm := range cell {
				if tm.Var < 0 {
					jobs = append(jobs, c.scr.ghostJob[-2-int(tm.Var)])
					continue
				}
				row = append(row, tm)
				maxUse += tm.Coef * c.Model.Vars[tm.Var].Ub
			}
			implied := slices.ContainsFunc(kept, func(k int) bool {
				return c.avail[g][k] <= limit && slices.Equal(grid[g*h+k], cell)
			})
			if len(cell) == 0 || maxUse <= float64(limit) || implied {
				continue
			}
			kept = append(kept, t)
			m.AddConstraintNamed(milp.Namef("supply_g%d_t%d", g, t), row, milp.LE, float64(limit))
			ghosts = append(ghosts, jobs)
		}
	}
	return m.Cons, ghosts
}

// TestSupplyRowsMatchDenseGrid: the supply rows the sweep emits — their
// order, names, terms in order, limits and ghosts — are those of the dense
// per-(group, slice) accumulator it replaced, on random batches of nCk and
// LnCk leaves over overlapping sets (so covers span groups), some clipped at
// the window's edge, with nodes released late or never (so whole groups have
// no node free under a leaf: ghosts). A zero-length leaf never reaches the
// sweep: strl.Validate refuses it.
func TestSupplyRowsMatchDenseGrid(t *testing.T) {
	const n, horizon = 24, 8
	sets := []*bitset.Set{full(n), set(n, 0, 1, 2, 3, 4, 5, 6, 7), set(n, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
		set(n, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23), set(n, 0, 2, 4, 18, 20, 22)}
	r := rand.New(rand.NewSource(1))
	var sc Scratch
	rows, withGhosts, linear, clipped := 0, 0, 0, 0
	for batch := 0; batch < 300; batch++ {
		jobs := make([]strl.Expr, 1+r.Intn(12))
		for j := range jobs {
			kids := make([]strl.Expr, 1+r.Intn(4))
			for i := range kids {
				s := sets[r.Intn(len(sets))]
				k, start, dur := 1+r.Intn(s.Count()), int64(r.Intn(horizon)), int64(1+r.Intn(horizon))
				if start+dur > horizon {
					clipped++
				}
				if r.Intn(4) == 0 {
					kids[i] = &strl.LnCk{Set: s, K: k, Start: start, Dur: dur, Value: 1 + r.Float64()}
					linear++
				} else {
					kids[i] = &strl.NCk{Set: s, K: k, Start: start, Dur: dur, Value: 1 + r.Float64()}
				}
			}
			jobs[j] = &strl.Max{Kids: kids}
			if len(kids) == 1 {
				jobs[j] = kids[0]
			}
		}
		rel := make([]int64, n)
		for i := range rel {
			if r.Intn(3) == 0 {
				rel[i] = int64(r.Intn(horizon + 3)) // past the window: never free
			}
		}
		c, err := sc.Compile(jobs, Options{Universe: n, Horizon: horizon, ReleaseAt: rel})
		if err != nil {
			t.Fatal(err)
		}
		want, wantGhosts := denseSupply(c)
		first := len(c.Model.Cons) - len(want)
		if first < 0 || first > 0 && strings.HasPrefix(c.Model.Cons[first-1].Name.String(), "supply_") {
			t.Fatalf("batch %d: %d rows, want the last %d to be all the supply rows", batch, len(c.Model.Cons), len(want))
		}
		at := 0
		for i := 0; i < first; i++ {
			c.rowGhosts(i, &at)
		}
		for i, w := range want {
			got := c.Model.Cons[first+i]
			var jobs []int32
			for _, gt := range c.rowGhosts(first+i, &at) {
				jobs = append(jobs, gt.job)
			}
			if got.Name != w.Name || got.Op != w.Op || got.RHS != w.RHS || !slices.Equal(got.Terms, w.Terms) || !slices.Equal(jobs, wantGhosts[i]) {
				t.Fatalf("batch %d, supply row %d: %v %v %v %v ghosts %v, want %v %v %v %v ghosts %v", batch, i,
					got.Name, got.Terms, got.Op, got.RHS, jobs, w.Name, w.Terms, w.Op, w.RHS, wantGhosts[i])
			}
			if len(jobs) > 0 {
				withGhosts++
			}
		}
		rows += len(want)
	}
	if rows == 0 || withGhosts == 0 || linear == 0 || clipped == 0 {
		t.Errorf("%d supply rows, %d with ghosts, %d LnCk leaves, %d leaves clipped at the window's edge: a case went untested",
			rows, withGhosts, linear, clipped)
	}
	zero := &strl.NCk{Set: full(n), K: 1, Start: 0, Dur: 0, Value: 1}
	if _, err := sc.Compile([]strl.Expr{zero}, Options{Universe: n, Horizon: horizon}); err == nil {
		t.Error("a zero-length leaf compiled")
	}
}
