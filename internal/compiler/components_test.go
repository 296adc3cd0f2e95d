package compiler

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// blockJobs builds nBlocks disjoint 3-node blocks with two competing jobs
// each (K=2 on 3 nodes forces a binding supply row, so jobs within a block
// stay coupled while blocks never touch).
func blockJobs(n, nBlocks int) []strl.Expr {
	var jobs []strl.Expr
	for b := 0; b < nBlocks; b++ {
		blk := set(n, 3*b, 3*b+1, 3*b+2)
		for j := 0; j < 2; j++ {
			jobs = append(jobs, &strl.Max{Kids: []strl.Expr{
				&strl.NCk{Set: blk, K: 2, Start: 0, Dur: 2, Value: 10},
				&strl.NCk{Set: blk, K: 2, Start: 1, Dur: 2, Value: 8},
				&strl.NCk{Set: blk, K: 2, Start: 2, Dur: 2, Value: 6},
			}})
		}
	}
	return jobs
}

// TestDecomposeDisjointBlocks is the acceptance-criterion detection test: a
// batch of jobs over pairwise-disjoint equivalence sets must split into
// exactly one component per block, each carrying its own jobs and a
// consistently remapped sub-model.
func TestDecomposeDisjointBlocks(t *testing.T) {
	const nBlocks = 4
	n := 3 * nBlocks
	jobs := blockJobs(n, nBlocks)
	c, err := Compile(jobs, Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	comps := c.Components()
	if len(comps) != nBlocks {
		t.Fatalf("got %d components, want %d", len(comps), nBlocks)
	}
	seen := make(map[int]bool)
	for ci, cc := range comps {
		if len(cc.Jobs) != 2 {
			t.Errorf("component %d has jobs %v, want 2 jobs", ci, cc.Jobs)
		}
		for _, j := range cc.Jobs {
			if seen[j] {
				t.Errorf("job %d appears in more than one component", j)
			}
			seen[j] = true
		}
		if cc.VarMap == nil {
			t.Fatalf("component %d of a decomposed batch has identity VarMap", ci)
		}
		if len(cc.VarMap) != cc.Model.NumVars() {
			t.Fatalf("component %d: VarMap len %d != %d vars", ci, len(cc.VarMap), cc.Model.NumVars())
		}
		// The remap must preserve variable identity: same name, type, bounds,
		// and objective as the parent variable it stands for.
		for sv, fv := range cc.VarMap {
			want := c.Model.Vars[fv]
			got := cc.Model.Vars[sv]
			if got != want {
				t.Fatalf("component %d var %d: %+v != parent var %d %+v", ci, sv, got, fv, want)
			}
		}
	}
	if len(seen) != len(jobs) {
		t.Errorf("components cover %d jobs, want %d", len(seen), len(jobs))
	}
}

// TestDecomposeContendedBatchStaysWhole pins the zero-copy single-component
// path: jobs coupled through a binding supply row must come back as one
// component wrapping the original model.
func TestDecomposeContendedBatchStaysWhole(t *testing.T) {
	jobs := blockJobs(3, 1) // two jobs on the same 3-node block
	c, err := Compile(jobs, Options{Universe: 3, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	comps := c.Components()
	if len(comps) != 1 {
		t.Fatalf("got %d components, want 1", len(comps))
	}
	if comps[0].Model != c.Model {
		t.Error("single component should reuse the original model, not a copy")
	}
	if comps[0].VarMap != nil {
		t.Error("single component should have the identity VarMap")
	}
	if len(comps[0].Jobs) != 2 {
		t.Errorf("single component jobs = %v, want both", comps[0].Jobs)
	}
}

// TestForcedComponentsIgnoreUnusableGroups: a supply row that two class-0
// jobs share keeps them in one component, as Components of class 0 alone
// does, even when a class-1 leaf covers the row's group but finds no node of
// it free throughout its slices: that group contributes no term of the
// class-1 job, so the row does not span the two classes and is not cut.
func TestForcedComponentsIgnoreUnusableGroups(t *testing.T) {
	const n = 4
	busy := set(n, 0, 1) // released at slice 2
	jobs := []strl.Expr{
		&strl.NCk{Set: busy, K: 2, Start: 2, Dur: 1, Value: 10},
		&strl.NCk{Set: busy, K: 2, Start: 2, Dur: 1, Value: 8},
		&strl.NCk{Set: full(n), K: 1, Start: 0, Dur: 3, Value: 5},
	}
	opts := Options{Universe: n, Horizon: 4, ReleaseAt: []int64{2, 2, 0, 0}}
	alone, err := Compile(jobs[:2], opts)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	for _, cc := range alone.Components() {
		want = append(want, cc.Jobs)
	}
	if !reflect.DeepEqual(want, [][]int{{0, 1}}) {
		t.Fatalf("class 0 alone decomposes into %v, want one component of both jobs", want)
	}
	c, err := Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int
	for _, cc := range c.ForcedComponents([]int{0, 0, 1}, -1) {
		got = append(got, cc.Jobs)
	}
	if want = append(want, []int{2}); !reflect.DeepEqual(got, want) {
		t.Errorf("ForcedComponents = %v, want %v", got, want)
	}
}

// TestDecomposeSliceParity solves each component independently and checks the
// lifted union is feasible for the full model with the same total objective
// as the monolithic solve — decomposition must be lossless.
func TestDecomposeSliceParity(t *testing.T) {
	const nBlocks = 3
	n := 3 * nBlocks
	jobs := blockJobs(n, nBlocks)
	c, err := Compile(jobs, Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	mono := solve(t, c)
	comps := c.Components()
	if len(comps) != nBlocks {
		t.Fatalf("got %d components, want %d", len(comps), nBlocks)
	}
	full := make([]float64, c.Model.NumVars())
	sum := 0.0
	for ci, cc := range comps {
		sub, err := milp.Solve(cc.Model, milp.Options{})
		if err != nil {
			t.Fatalf("component %d solve: %v", ci, err)
		}
		if sub.Status != milp.StatusOptimal {
			t.Fatalf("component %d status = %v", ci, sub.Status)
		}
		sum += sub.Objective
		scatter(cc, sub.Values, full)
	}
	if math.Abs(sum-mono.Objective) > 1e-6 {
		t.Errorf("component objective sum %v != monolithic %v", sum, mono.Objective)
	}
	if !c.Model.IsFeasible(full, 1e-6) {
		t.Error("lifted union of component optima is infeasible for the full model")
	}
	if got := c.Model.ObjectiveValue(full); math.Abs(got-mono.Objective) > 1e-6 {
		t.Errorf("lifted union objective %v != monolithic %v", got, mono.Objective)
	}
}

// TestDecomposeComponentGreedyRound checks the component-scoped heuristic
// produces candidates in component variable space that the sub-model accepts.
func TestDecomposeComponentGreedyRound(t *testing.T) {
	const nBlocks = 3
	n := 3 * nBlocks
	c, err := Compile(blockJobs(n, nBlocks), Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for ci, cc := range c.Components() {
		relax := make([]float64, cc.Model.NumVars()) // all-zero LP point
		cand := cc.GreedyRound(relax)
		if cand == nil {
			t.Fatalf("component %d: GreedyRound returned nil", ci)
		}
		if len(cand) != cc.Model.NumVars() {
			t.Fatalf("component %d: candidate has %d entries for %d vars", ci, len(cand), cc.Model.NumVars())
		}
		if !cc.Model.IsFeasible(cand, 1e-6) {
			t.Errorf("component %d: greedy candidate infeasible for sub-model", ci)
		}
		if cc.Model.ObjectiveValue(cand) <= 0 {
			t.Errorf("component %d: greedy candidate has non-positive objective", ci)
		}
	}
}

// TestCompileWithinMatchesWhole: compiling a batch that only ever names some
// of the nodes against those nodes (Options.Within) gives the components of
// compiling it against the whole cluster — same fingerprints, same solves,
// same grants up to the numbering of the partition groups — without the group
// of nodes nobody named; and each half of a batch over disjoint halves of the
// cluster, compiled alone, gives its half of the whole batch's components.
func TestCompileWithinMatchesWhole(t *testing.T) {
	const n, nBlocks = 24, 4
	jobs := blockJobs(n, nBlocks) // blocks on nodes 0..11; 12..23 named by nobody
	rel := make([]int64, n)
	rel[1], rel[4], rel[20] = 2, 1, 3
	whole, err := Compile(jobs, Options{Universe: n, Horizon: 4, ReleaseAt: rel})
	if err != nil {
		t.Fatal(err)
	}
	prints := func(c *Compiled) (fps []uint64) {
		for _, cc := range c.Components() {
			fps = append(fps, c.ComponentFingerprint(cc))
		}
		return fps
	}
	want := prints(whole)
	named := set(n, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	within, err := Compile(jobs, Options{Universe: n, Horizon: 4, ReleaseAt: rel, Within: named})
	if err != nil {
		t.Fatal(err)
	}
	if got := prints(within); !slices.Equal(got, want) {
		t.Errorf("component fingerprints within the named nodes %x, over the cluster %x", got, want)
	}
	if len(within.Part.Groups) != len(whole.Part.Groups)-1 {
		t.Errorf("%d partition groups within the named nodes, %d over the cluster; want one fewer", len(within.Part.Groups), len(whole.Part.Groups))
	}
	for half, nodes := range []*bitset.Set{set(n, 0, 1, 2, 3, 4, 5), set(n, 6, 7, 8, 9, 10, 11)} {
		c, err := Compile(jobs[4*half:4*half+4], Options{Universe: n, Horizon: 4, ReleaseAt: rel, Within: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if got := prints(c); !slices.Equal(got, want[2*half:2*half+2]) {
			t.Errorf("half %d alone: component fingerprints %x, its share of the batch's %x", half, got, want[2*half:2*half+2])
		}
	}
	if _, err := Compile(jobs, Options{Universe: n, Horizon: 4, Within: set(n+1, 0)}); err == nil {
		t.Error("a Within over the wrong number of nodes compiled")
	}
}

// TestAppendGrantsMatchesDecode: decoding each component's own solution vector
// gives, together, exactly what Decode gives for the merged one — the same
// leaves, the same (group, count) pairs in group order, jobs by batch index.
func TestAppendGrantsMatchesDecode(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		jobs, opts := cycleBatch(seed, 12)
		c, err := Compile(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		sol := solveToGap(t, c)
		want := c.Decode(sol)
		for _, comps := range [][]*Component{c.Components(), c.ForcedComponents(fourClasses(len(jobs)), -1)} {
			var got []LeafGrant
			var counts []GroupCount // every component's grants' Counts, in one array
			for _, cc := range comps {
				got, counts = cc.AppendGrants(got, counts, project(cc, sol.Values))
			}
			slices.SortStableFunc(got, func(a, b LeafGrant) int { return a.Job - b.Job })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d components: grants\n%+v\nDecode\n%+v", seed, len(comps), got, want)
			}
		}
		for _, g := range want {
			if !slices.IsSortedFunc(g.Counts, func(a, b GroupCount) int { return a.Group - b.Group }) {
				t.Errorf("seed %d: grant counts %v not in group order", seed, g.Counts)
			}
		}
	}
}

// project is a full-model vector's entries on the component's variables, in
// the component's order; nil in, nil out.
func project(cc *Component, full []float64) []float64 {
	if full == nil || cc.VarMap == nil {
		return slices.Clone(full)
	}
	out := make([]float64, len(cc.VarMap))
	for i, fv := range cc.VarMap {
		out[i] = full[fv]
	}
	return out
}

// scatter writes a component-space vector into its variables' entries of a
// full-model vector, leaving the others alone.
func scatter(cc *Component, sub, full []float64) {
	if cc.VarMap == nil {
		copy(full, sub)
		return
	}
	for i, fv := range cc.VarMap {
		full[fv] = sub[i]
	}
}
