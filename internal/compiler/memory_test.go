package compiler

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// cycleBatch builds a batch shaped like a scheduler cycle's: nJobs MAX-of-nCk
// jobs over a 64-node cluster in four racks, each offering a preferred rack
// and the whole cluster at several start slices, with a release vector that
// leaves some racks partly busy (so leaves have multi-group covers, some are
// culled, and supply rows bind).
func cycleBatch(seed int64, nJobs int) ([]strl.Expr, Options) {
	const n, horizon = 64, 10
	r := rand.New(rand.NewSource(seed))
	all := full(n)
	racks := make([]*bitset.Set, 4)
	for i := range racks {
		racks[i] = bitset.New(n)
		for j := i * 16; j < (i+1)*16; j++ {
			racks[i].Add(j)
		}
	}
	jobs := make([]strl.Expr, nJobs)
	for j := range jobs {
		k := 1 + r.Intn(16)
		dur := int64(1 + r.Intn(4))
		value := 1 + r.Float64()*9
		rack := racks[r.Intn(len(racks))]
		var kids []strl.Expr
		for s := int64(0); s < horizon; s += 1 + int64(r.Intn(3)) {
			kids = append(kids,
				&strl.NCk{Set: rack, K: k, Start: s, Dur: dur, Value: value * 1.5 / float64(1+s)},
				&strl.NCk{Set: all, K: k, Start: s, Dur: dur * 2, Value: value / float64(1+s)})
		}
		jobs[j] = &strl.Max{Kids: kids}
		if r.Intn(8) == 0 {
			jobs[j] = kids[0] // a bare leaf
		}
	}
	rel := make([]int64, n)
	for i := range rel {
		if r.Intn(3) == 0 {
			rel[i] = int64(r.Intn(horizon + 2))
		}
	}
	return jobs, Options{Universe: n, Horizon: horizon, ReleaseAt: rel}
}

// solveToGap solves a batch the way the scheduler does: to a 10% gap, with
// the rounding heuristic (an exact solve of these batches takes seconds).
func solveToGap(t *testing.T, c *Compiled) *milp.Solution {
	t.Helper()
	sol, err := milp.Solve(c.Model, milp.Options{Gap: 0.1, Workers: 1, Heuristic: c.GreedyRound})
	if err != nil || sol.Values == nil {
		t.Fatalf("solve: %v %+v", err, sol)
	}
	return sol
}

// TestScratchCompileAllocs budgets a steady-state compilation: with the
// staging grown to fit, what is allocated is what the Compiled keeps — the
// model's three arrays, the records, the partition and its groups — and
// none of it per variable, row or leaf. A fresh Scratch makes ten times as
// many allocations for the same batch.
func TestScratchCompileAllocs(t *testing.T) {
	jobs, opts := cycleBatch(1, 40)
	var sc Scratch
	for i := 0; i < 3; i++ {
		if _, err := sc.Compile(jobs, opts); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 60
	warm := testing.AllocsPerRun(20, func() { sc.Compile(jobs, opts) })
	if warm > budget {
		t.Errorf("a steady-state compile allocates %v times, budget %d", warm, budget)
	}
	cold := testing.AllocsPerRun(20, func() { Compile(jobs, opts) })
	t.Logf("allocations per compile: %v steady state, %v on a fresh Scratch", warm, cold)
}

// TestScratchCompileIndependent: a Compiled keeps nothing of the Scratch that
// built it — compiling other batches on the same Scratch leaves its model,
// its decode and its heuristic exactly as they were.
func TestScratchCompileIndependent(t *testing.T) {
	var sc Scratch
	jobs, opts := cycleBatch(2, 9)
	first, err := sc.Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(3); seed < 7; seed++ {
		other, oopts := cycleBatch(seed, 10+int(seed)*6)
		if _, err := sc.Compile(other, oopts); err != nil {
			t.Fatal(err)
		}
	}
	if first.Model.String() != fresh.Model.String() {
		t.Fatal("later compilations on the Scratch changed an earlier model")
	}
	sol := solveToGap(t, first)
	if !reflect.DeepEqual(first.Decode(sol), fresh.Decode(sol)) {
		t.Fatal("later compilations on the Scratch changed an earlier Compiled's decode")
	}
	x := make([]float64, first.Model.NumVars())
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	if !reflect.DeepEqual(first.GreedyRound(x), fresh.GreedyRound(x)) {
		t.Fatal("later compilations on the Scratch changed an earlier Compiled's heuristic")
	}
}

// TestDecodeAllocatesPerGrant: Decode builds a grant (and its Counts map)
// only for a leaf the solution gives nodes to, and JobChosen nothing at all.
func TestDecodeAllocatesPerGrant(t *testing.T) {
	jobs, opts := cycleBatch(4, 10)
	c, err := Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveToGap(t, c)
	grants := c.Decode(sol)
	if len(grants) == 0 || len(grants) > len(jobs) {
		t.Fatalf("%d grants for %d jobs", len(grants), len(jobs))
	}
	chosen := 0
	for j := range jobs {
		want := false
		for _, g := range grants {
			want = want || (g.Job == j && g.Total > 0)
		}
		if c.JobChosen(sol, j) != want {
			t.Errorf("JobChosen(%d) = %v, Decode says %v", j, !want, want)
		}
		if want {
			chosen++
		}
	}
	// Per grant: the map and its first bucket; plus the growing result slice.
	if avg, limit := testing.AllocsPerRun(20, func() { c.Decode(sol) }), float64(3*len(grants)+8); avg > limit {
		t.Errorf("Decode allocates %v times for %d grants among %d leaves", avg, len(grants), len(c.leaves))
	}
	if avg := testing.AllocsPerRun(20, func() { c.JobChosen(sol, chosen%len(jobs)) }); avg != 0 {
		t.Errorf("JobChosen allocates %v times", avg)
	}
}

// greedyRoundReference is GreedyRound as it was before it stopped cloning
// the whole availability grid and routing through InitialVector: a ledger
// over every group, per-call leaf lists, grants with count maps, and the
// general-purpose vector builder. jobs nil means every job; x and the result
// are in full-model space.
func greedyRoundReference(c *Compiled, x []float64, jobs []int) []float64 {
	remain := make([][]int64, len(c.avail))
	for g := range c.avail {
		remain[g] = append([]int64(nil), c.avail[g]...)
	}
	if jobs == nil {
		for j := range c.jobs {
			jobs = append(jobs, j)
		}
	}
	order := append([]int(nil), jobs...)
	sort.SliceStable(order, func(a, b int) bool { return x[c.job[order[a]].varLo] > x[c.job[order[b]].varLo] })
	var grants []LeafGrant
	for _, j := range order {
		if !roundable(c.jobs[j]) {
			continue
		}
		var recs []*leafRecord
		for i := c.job[j].leafLo; i < c.job[j+1].leafLo; i++ {
			if !c.leaves[i].culled {
				recs = append(recs, &c.leaves[i])
			}
		}
		sort.SliceStable(recs, func(a, b int) bool {
			if xa, xb := x[recs[a].ind], x[recs[b].ind]; xa != xb {
				return xa > xb
			}
			return leafValue(recs[a].expr) > leafValue(recs[b].expr)
		})
	options:
		for _, rec := range recs {
			s, e, _ := c.slices(rec.start, rec.dur)
			groups := []int{rec.group}
			if !rec.single {
				groups = groups[:0]
				for _, pv := range c.partsOf(rec) {
					groups = append(groups, pv.group)
				}
			}
			counts, need := map[int]int{}, rec.k
			for _, g := range groups {
				avail := int64(1) << 62
				for t := s; t < e; t++ {
					avail = min(avail, remain[g][t])
				}
				if take := min(int(avail), need); take > 0 {
					counts[g] = take
					need -= take
				}
			}
			if need > 0 {
				continue options
			}
			for g, cnt := range counts {
				for t := s; t < e; t++ {
					remain[g][t] -= int64(cnt)
				}
			}
			grants = append(grants, LeafGrant{Job: rec.job, Leaf: rec.expr, Start: rec.start, Dur: rec.dur, Counts: counts, Total: rec.k})
			break
		}
	}
	if len(grants) == 0 {
		return nil
	}
	vec, ok := c.InitialVector(grants)
	if !ok {
		return nil
	}
	return vec
}

// TestGreedyRoundMatchesReference: the rewritten rounding returns, entry for
// entry, what the reference returns — on the whole batch, and on every
// component of natural and forced decompositions in the component's own
// variable space.
func TestGreedyRoundMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		jobs, opts := cycleBatch(seed, 5+r.Intn(40))
		if seed%4 == 0 { // disjoint blocks: a batch that decomposes naturally
			jobs = blockJobs(12, 4)
			opts = Options{Universe: 12, Horizon: 4}
		}
		c, err := Compile(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, c.Model.NumVars())
		for i := range x {
			x[i] = float64(r.Intn(5)) / 4 // plenty of ties, as LP points have
		}
		if got, want := c.GreedyRound(x), greedyRoundReference(c, x, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: whole-batch rounding differs from the reference", seed)
		}
		assign := make([]int, len(jobs))
		for j := range assign {
			assign[j] = r.Intn(3)
		}
		for _, comps := range [][]*Component{c.Components(), c.ForcedComponents(assign, 2)} {
			for ci, cc := range comps {
				want := greedyRoundReference(c, x, cc.Jobs)
				if want != nil {
					want = cc.Restrict(want)
				}
				if got := cc.GreedyRound(cc.Restrict(x)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d component %d/%d: rounding differs from the reference", seed, ci, len(comps))
				}
			}
		}
	}
}

// TestComponentsSliceMatchesParent: every sub-model row is the parent row it
// came from — same name, operator and RHS, terms mapped through VarMap in the
// parent's order — rows keep the parent's order, and a cut row's copy holds
// exactly that component's terms.
func TestComponentsSliceMatchesParent(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		jobs, opts := cycleBatch(seed, 8+r.Intn(30))
		c, err := Compile(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, len(jobs))
		for j := range assign {
			assign[j] = r.Intn(4)
		}
		comps := c.ForcedComponents(assign, -1)
		if len(comps) < 2 {
			continue
		}
		for ci, cc := range comps {
			mine := map[int]bool{}
			for _, fv := range cc.VarMap {
				mine[fv] = true
			}
			next := 0 // sub-model rows are consumed in parent order
			for _, con := range c.Model.Cons {
				var want []milp.Term
				maxUse := 0.0
				for _, tm := range con.Terms {
					if mine[int(tm.Var)] {
						want = append(want, tm)
						maxUse += tm.Coef * c.Model.Vars[tm.Var].Ub
					}
				}
				if len(want) == 0 || (len(want) < len(con.Terms) && maxUse <= con.RHS) {
					continue // not this component's, or a cut copy that cannot bind
				}
				if next == len(cc.Model.Cons) {
					t.Fatalf("seed %d component %d: sub-model is missing row %s", seed, ci, con.Name)
				}
				sub := cc.Model.Cons[next]
				next++
				if sub.Name != con.Name || sub.Op != con.Op || sub.RHS != con.RHS || len(sub.Terms) != len(want) {
					t.Fatalf("seed %d component %d: row %s sliced to %+v", seed, ci, con.Name, sub)
				}
				for i, tm := range sub.Terms {
					if cc.VarMap[tm.Var] != int(want[i].Var) || tm.Coef != want[i].Coef {
						t.Fatalf("seed %d component %d: row %s term %d is %+v, want %+v", seed, ci, con.Name, i, tm, want[i])
					}
				}
			}
			if next != len(cc.Model.Cons) {
				t.Fatalf("seed %d component %d: sub-model has %d extra rows", seed, ci, len(cc.Model.Cons)-next)
			}
		}
	}
}
