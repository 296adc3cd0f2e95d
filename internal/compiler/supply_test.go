package compiler

import (
	"math/rand"
	"slices"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// denseSupply is the supply emission the sweep replaced: a dense accumulator
// with a cell of terms per (group, slice), each of the batch's uses appended
// to the cell of every slice it spans, walked group-major then slice-major.
// It returns the rows AddConstraint makes of the cells that can bind and
// repeat no kept cell at a limit no larger.
func denseSupply(c *Compiled) []milp.Constraint {
	h := int(c.opts.Horizon)
	grid := make([][]milp.Term, len(c.Part.Groups)*h)
	for _, u := range c.scr.uses {
		for t := int(u.s); t < int(u.e); t++ {
			grid[int(u.group)*h+t] = append(grid[int(u.group)*h+t], u.term)
		}
	}
	m := &milp.Model{}
	m.Vars = c.Model.Vars
	for g := range c.Part.Groups {
		var kept []int
		for t := 0; t < h; t++ {
			cell, limit := grid[g*h+t], c.avail[g][t]
			maxUse := 0.0
			for _, tm := range cell {
				maxUse += tm.Coef * c.Model.Vars[tm.Var].Ub
			}
			implied := slices.ContainsFunc(kept, func(k int) bool {
				return c.avail[g][k] <= limit && slices.Equal(grid[g*h+k], cell)
			})
			if len(cell) == 0 || maxUse <= float64(limit) || implied {
				continue
			}
			kept = append(kept, t)
			m.AddConstraint(cell, milp.LE, float64(limit))
		}
	}
	return m.Cons
}

// TestSupplyRowsMatchDenseGrid: the supply rows the sweep emits after all of
// the jobs' rows — their order, terms in order and limits — are those of the
// dense per-(group, slice) accumulator it replaced, on random batches of nCk and
// LnCk leaves over overlapping sets (so covers span groups), some clipped at
// the window's edge, with nodes released late or never (so whole groups have
// no node free under a leaf and get no term of it). A zero-length leaf never
// reaches the sweep: strl.Validate refuses it.
func TestSupplyRowsMatchDenseGrid(t *testing.T) {
	const n, horizon = 24, 8
	sets := []*bitset.Set{full(n), set(n, 0, 1, 2, 3, 4, 5, 6, 7), set(n, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
		set(n, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23), set(n, 0, 2, 4, 18, 20, 22)}
	r := rand.New(rand.NewSource(1))
	var sc Scratch
	rows, linear, clipped := 0, 0, 0
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
		want := denseSupply(c)
		first := 0 // emitSupply adds its rows after every job's
		for j := range jobs {
			_, rows := jobSize(c, j)
			first += rows
		}
		if first+len(want) != len(c.Model.Cons) {
			t.Fatalf("batch %d: %d rows, want the jobs' %d and %d supply rows", batch, len(c.Model.Cons), first, len(want))
		}
		for i, w := range want {
			got := c.Model.Cons[first+i]
			if got.Op != w.Op || got.RHS != w.RHS || !slices.Equal(got.Terms, w.Terms) {
				t.Fatalf("batch %d, supply row %d: %v %v %v, want %v %v %v", batch, i,
					got.Terms, got.Op, got.RHS, w.Terms, w.Op, w.RHS)
			}
		}
		rows += len(want)
	}
	if rows == 0 || linear == 0 || clipped == 0 {
		t.Errorf("%d supply rows, %d LnCk leaves, %d leaves clipped at the window's edge: a case went untested",
			rows, linear, clipped)
	}
	zero := &strl.NCk{Set: full(n), K: 1, Start: 0, Dur: 0, Value: 1}
	if _, err := sc.Compile([]strl.Expr{zero}, Options{Universe: n, Horizon: horizon}); err == nil {
		t.Error("a zero-length leaf compiled")
	}
}
