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
	sol, err := milp.Solve(c.Model, milp.Options{Gap: 0.1, Heuristic: c.GreedyRound})
	if err != nil || sol.Values == nil {
		t.Fatalf("solve: %v %+v", err, sol)
	}
	return sol
}

// fourClasses routes a batch's jobs round-robin to four classes, the shape of
// a 4-shard assignment.
func fourClasses(nJobs int) []int {
	assign := make([]int, nJobs)
	for j := range assign {
		assign[j] = j % 4
	}
	return assign
}

// TestScratchCompileAllocs: once a Scratch has grown to fit a batch,
// compiling it allocates the handle (the Compiled) and the partition, and
// decomposing it — naturally, and along a 4-class assignment — into a header
// slice that has the room allocates nothing; none of those counts depends on
// how many jobs, variables, rows or components the batch has. A fresh Scratch
// makes many times as many allocations for the same batch.
func TestScratchCompileAllocs(t *testing.T) {
	steady := func(nJobs int) (compile, natural, forced float64) {
		jobs, opts := cycleBatch(1, nJobs)
		assign := fourClasses(nJobs)
		var sc Scratch
		var c *Compiled
		var nat, frc []Component
		cycle := func() {
			c, _ = sc.Compile(jobs, opts)
			nat, frc = c.AppendComponents(nat[:0], nil, -1), c.AppendComponents(frc[:0], assign, -1)
			if len(nat)+len(frc) < 5 {
				t.Fatalf("%d jobs: the forced decomposition did not split", nJobs)
			}
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		compile = testing.AllocsPerRun(10, func() { c, _ = sc.Compile(jobs, opts) })
		natural = testing.AllocsPerRun(10, func() { c, _ = sc.Compile(jobs, opts); nat = c.AppendComponents(nat[:0], nil, -1) }) - compile
		forced = testing.AllocsPerRun(10, func() { c, _ = sc.Compile(jobs, opts); frc = c.AppendComponents(frc[:0], assign, -1) }) - compile
		return
	}
	c40, n40, f40 := steady(40)
	c160, n160, f160 := steady(160)
	if c40 != c160 || n40 != n160 || f40 != f160 {
		t.Errorf("steady-state allocations grow with the batch: compile %v vs %v, Components %v vs %v, ForcedComponents %v vs %v (40 vs 160 jobs)",
			c40, c160, n40, n160, f40, f160)
	}
	if n40 != 0 || f40 != 0 {
		t.Errorf("a decomposition into headers with room allocates %v (natural) and %v (forced) times, want none", n40, f40)
	}
	jobs, opts := cycleBatch(1, 40)
	cold := testing.AllocsPerRun(10, func() { Compile(jobs, opts) })
	t.Logf("allocations per compile: %v steady state, %v on a fresh Scratch", c40, cold)
	if cold < 4*c40 {
		t.Errorf("a fresh Scratch allocates %v times against %v in steady state; the Scratch is not being reused", cold, c40)
	}
}

// compSnap and batchSnap are everything observable about a component and a
// compiled batch, in comparable form.
type compSnap struct {
	Jobs, VarMap, Groups []int
	Shard                int
	Model                string
	Fingerprint          uint64
	Round                []float64
}

type batchSnap struct {
	Model   string
	Round   []float64
	Decode  []LeafGrant
	Natural []compSnap
	Forced  []compSnap
}

func snapComponents(c *Compiled, comps []*Component, x []float64) []compSnap {
	out := make([]compSnap, len(comps))
	for i, cc := range comps {
		out[i] = compSnap{
			Jobs:        append([]int(nil), cc.Jobs...), // copies; empty is nil
			VarMap:      append([]int(nil), cc.VarMap...),
			Groups:      append([]int(nil), cc.scope.groups...),
			Shard:       cc.Shard,
			Model:       cc.Model.String(),
			Fingerprint: c.ComponentFingerprint(cc),
			Round:       cc.GreedyRound(project(cc, x)),
		}
	}
	return out
}

// snapBatch reads a Compiled every way the scheduler does: the model as text,
// the rounding of a tie-rich pseudo LP point, the decode of that rounding, and
// both decompositions with every component's model, maps, groups, fingerprint
// and rounding.
func snapBatch(c *Compiled) batchSnap {
	x := make([]float64, c.Model.NumVars())
	for i := range x {
		x[i] = float64(i%5) / 4
	}
	snap := batchSnap{Model: c.Model.String(), Round: c.GreedyRound(x)}
	if snap.Round != nil {
		snap.Decode = c.Decode(&milp.Solution{Values: snap.Round})
	}
	// Both decompositions first: they must coexist until the next Compile.
	natural, forced := c.Components(), c.ForcedComponents(fourClasses(len(c.jobs)), 3)
	snap.Natural = snapComponents(c, natural, x)
	snap.Forced = snapComponents(c, forced, x)
	return snap
}

// TestCompileResultNeverInvalidated: what the package-level Compile returns
// has a Scratch to itself, so no later compilation, anywhere, changes it.
func TestCompileResultNeverInvalidated(t *testing.T) {
	jobs, opts := cycleBatch(2, 9)
	first, err := Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := snapBatch(first)
	var sc Scratch
	for seed := int64(3); seed < 7; seed++ {
		other, oopts := cycleBatch(seed, 10+int(seed)*6)
		for _, compile := range []func([]strl.Expr, Options) (*Compiled, error){Compile, sc.Compile} {
			c, err := compile(other, oopts)
			if err != nil {
				t.Fatal(err)
			}
			c.Components()
		}
	}
	if first.Stale() {
		t.Error("a package-level Compile result reports Stale")
	}
	if got := snapBatch(first); !reflect.DeepEqual(got, want) {
		t.Error("later compilations changed a package-level Compile result")
	}
}

// TestScratchCompiledMatchesFresh: a Scratch decides where a Compiled lives
// and nothing else. Over a run of batches of very different sizes on one
// Scratch, each Compiled — read in full before the next Compile — equals a
// fresh compilation of the same batch byte for byte.
func TestScratchCompiledMatchesFresh(t *testing.T) {
	var sc Scratch
	for i, nJobs := range []int{9, 60, 4, 33, 1, 60, 17} {
		jobs, opts := cycleBatch(int64(10+i), nJobs)
		if i == 3 { // a batch that decomposes naturally
			jobs, opts = blockJobs(12, 4), Options{Universe: 12, Horizon: 4}
		}
		fresh, err := Compile(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := sc.Compile(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, got := snapBatch(fresh), snapBatch(pooled)
		if pooled.Stale() {
			t.Fatalf("batch %d: reading a Compiled made it stale", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d (%d jobs): the Scratch's Compiled differs from a fresh compilation", i, nJobs)
		}
	}
}

// TestStaleFlipsAtNextCompile: a Compiled and its components go stale exactly
// when their Scratch starts overwriting them — not when a Compile call is
// rejected before it builds anything — and a stale Compiled refuses to be
// decomposed into the memory of the live one. Headers appended to a caller's
// slice are the caller's memory and still tell: they go stale with the
// Compiled they were cut from.
func TestStaleFlipsAtNextCompile(t *testing.T) {
	var sc Scratch
	jobs, opts := cycleBatch(5, 12)
	first, err := sc.Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	comps := first.ForcedComponents(fourClasses(len(jobs)), -1)
	headers := make([]Component, 0, 16)
	owned := first.AppendComponents(headers, nil, -1)
	if len(owned) == 0 || &owned[0] != &headers[:1][0] {
		t.Fatalf("%d headers, not in the caller's slice", len(owned))
	}
	stale := func() bool {
		for _, cc := range comps {
			if cc.Stale() != first.Stale() {
				t.Fatal("a component and its Compiled disagree on Stale")
			}
		}
		for i := range owned {
			if owned[i].Stale() != first.Stale() {
				t.Fatal("a header in the caller's slice and its Compiled disagree on Stale")
			}
		}
		return first.Stale()
	}
	if stale() {
		t.Fatal("stale before any other Compile")
	}
	if _, err := sc.Compile(jobs, Options{Universe: opts.Universe}); err == nil || stale() {
		t.Fatalf("a rejected Compile (err %v) must leave the current Compiled live", err)
	}
	if _, err := sc.Compile([]strl.Expr{&strl.Max{}}, opts); err == nil || stale() {
		t.Fatalf("a Compile of an invalid expression (err %v) must leave the current Compiled live", err)
	}
	second, err := sc.Compile(jobs[:3], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stale() || second.Stale() {
		t.Fatalf("after the next Compile: first stale %v, second stale %v", first.Stale(), second.Stale())
	}
	defer func() {
		if recover() == nil {
			t.Error("decomposing a stale Compiled did not panic")
		}
	}()
	first.Components()
}

// TestDecodeAllocatesPerGrant: Decode builds a grant only for a leaf the
// solution gives nodes to and cuts every grant's Counts from one array, and
// AppendGrants cuts them from the caller's.
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
	// The Counts array, plus the growing result slice.
	if avg, limit := testing.AllocsPerRun(20, func() { c.Decode(sol) }), 8.0; avg > limit {
		t.Errorf("Decode allocates %v times for %d grants among %d leaves", avg, len(grants), len(c.leaves))
	}
	// The append form into grants and counts that have the room: nothing.
	for _, cc := range c.Components() {
		sub := project(cc, sol.Values)
		buf, counts := cc.AppendGrants(nil, nil, sub)
		if avg := testing.AllocsPerRun(20, func() { buf, counts = cc.AppendGrants(buf[:0], counts[:0], sub) }); avg != 0 {
			t.Errorf("AppendGrants into sized grants and counts allocates %v times", avg)
		}
	}
}

// greedyRoundReference is GreedyRound as it was before it stopped cloning
// the whole availability grid: a ledger over every group, per-call leaf lists
// and count lists, and a fresh vector. jobs nil means every job; x and the
// result are in full-model space.
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
	mass := map[int]float64{} // LP mass on the job's non-culled options
	for j := range c.jobs {
		for _, rec := range c.jobLeaves(j) {
			if !rec.culled {
				mass[j] += x[rec.ind]
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return mass[order[a]] > mass[order[b]] })
	vec, granted := make([]float64, c.Model.NumVars()), false
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
			var counts []GroupCount
			need := rec.k
			for _, g := range groups {
				avail := int64(1) << 62
				for t := s; t < e; t++ {
					avail = min(avail, remain[g][t])
				}
				if take := min(int(avail), need); take > 0 {
					counts = append(counts, GroupCount{g, take})
					need -= take
				}
			}
			if need > 0 {
				continue options
			}
			for _, gc := range counts {
				for t := s; t < e; t++ {
					remain[gc.Group][t] -= int64(gc.N)
				}
				for _, pv := range c.partsOf(rec) {
					if pv.group == gc.Group {
						vec[pv.id] = float64(gc.N)
					}
				}
			}
			vec[rec.ind], granted = 1, true
			break
		}
	}
	if !granted {
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
					want = project(cc, want)
				}
				if got := cc.GreedyRound(project(cc, x)); !reflect.DeepEqual(got, want) {
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
			for ri, con := range c.Model.Cons {
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
					t.Fatalf("seed %d component %d: sub-model is missing row c%d", seed, ci, ri)
				}
				sub := cc.Model.Cons[next]
				next++
				if sub.Op != con.Op || sub.RHS != con.RHS || len(sub.Terms) != len(want) {
					t.Fatalf("seed %d component %d: row c%d sliced to %+v", seed, ci, ri, sub)
				}
				for i, tm := range sub.Terms {
					if cc.VarMap[tm.Var] != int(want[i].Var) || tm.Coef != want[i].Coef {
						t.Fatalf("seed %d component %d: row c%d term %d is %+v, want %+v", seed, ci, ri, i, tm, want[i])
					}
				}
			}
			if next != len(cc.Model.Cons) {
				t.Fatalf("seed %d component %d: sub-model has %d extra rows", seed, ci, len(cc.Model.Cons)-next)
			}
		}
	}
}
