package compiler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

func set(n int, ids ...int) *bitset.Set { return bitset.FromIndices(n, ids...) }

func full(n int) *bitset.Set {
	s := bitset.New(n)
	s.Fill()
	return s
}

func solve(t *testing.T, c *Compiled) *milp.Solution {
	t.Helper()
	sol, err := milp.Solve(c.Model, milp.Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	return sol
}

// TestFig4MILPExample reproduces the paper's §5.1 example exactly: 3 jobs on
// 3 machines where only global scheduling with plan-ahead meets all three
// deadlines, yielding job 1 at t=0, job 3 at t=10s (slice 1), job 2 at t=20s
// (slice 2).
func TestFig4MILPExample(t *testing.T) {
	n := 3
	all := full(n)
	job1 := &strl.NCk{Set: all, K: 2, Start: 0, Dur: 1, Value: 1}
	job2 := &strl.Max{Kids: []strl.Expr{
		&strl.NCk{Set: all, K: 1, Start: 0, Dur: 2, Value: 1},
		&strl.NCk{Set: all, K: 1, Start: 1, Dur: 2, Value: 1},
		&strl.NCk{Set: all, K: 1, Start: 2, Dur: 2, Value: 1},
	}}
	job3 := &strl.Max{Kids: []strl.Expr{
		&strl.NCk{Set: all, K: 3, Start: 0, Dur: 1, Value: 1},
		&strl.NCk{Set: all, K: 3, Start: 1, Dur: 1, Value: 1},
	}}
	c, err := Compile([]strl.Expr{job1, job2, job3}, Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("objective = %v, want 3 (all jobs scheduled)", sol.Objective)
	}
	starts := map[int]int64{}
	for _, g := range c.Decode(sol) {
		starts[g.Job] = g.Start
	}
	if starts[0] != 0 || starts[2] != 1 || starts[1] != 2 {
		t.Errorf("schedule = %v, want job0@0 job2@1 job1@2", starts)
	}
}

// TestFig4WithoutPlanAhead shows that with horizon 1 (plan-ahead disabled)
// at most two of the three jobs can be scheduled, the motivating gap of §5.1.
func TestFig4WithoutPlanAhead(t *testing.T) {
	n := 3
	all := full(n)
	job1 := &strl.NCk{Set: all, K: 2, Start: 0, Dur: 1, Value: 1}
	job2 := &strl.NCk{Set: all, K: 1, Start: 0, Dur: 2, Value: 1}
	job3 := &strl.NCk{Set: all, K: 3, Start: 0, Dur: 1, Value: 1}
	c, err := Compile([]strl.Expr{job1, job2, job3}, Options{Universe: n, Horizon: 1})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if sol.Objective > 2+1e-9 {
		t.Errorf("objective = %v; without plan-ahead at most 2 jobs fit at t=0", sol.Objective)
	}
}

// TestGPUSoftConstraint compiles the Fig 3 example: the GPU branch must win
// when GPUs are free, and the fallback branch when they are busy.
func TestGPUSoftConstraint(t *testing.T) {
	n := 4
	gpus := set(n, 0, 1)
	job := &strl.Max{Kids: []strl.Expr{
		&strl.NCk{Set: gpus, K: 2, Start: 0, Dur: 2, Value: 4},
		&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 3, Value: 3},
	}}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("objective = %v, want 4 (GPU branch)", sol.Objective)
	}
	grants := c.Decode(sol)
	if len(grants) != 1 || grants[0].Leaf != job.Kids[0] {
		t.Errorf("grants = %+v, want the GPU leaf", grants)
	}

	// Occupy the GPUs for the whole window: the fallback must win.
	rel := []int64{99, 99, 0, 0}
	c2, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 4, ReleaseAt: rel})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol2 := solve(t, c2)
	if math.Abs(sol2.Objective-3) > 1e-6 {
		t.Fatalf("objective = %v, want 3 (fallback branch)", sol2.Objective)
	}
	g2 := c2.Decode(sol2)
	if len(g2) != 1 || g2[0].Leaf != job.Kids[1] {
		t.Errorf("grants = %+v, want the fallback leaf", g2)
	}
	// The fallback leaf spans both groups; only the 2 free nodes can serve.
	for _, gc := range g2[0].Counts {
		if !c2.Part.Groups[gc.Group].Contains(2) && !c2.Part.Groups[gc.Group].Contains(3) {
			t.Errorf("fallback drew %d nodes from busy group %d", gc.N, gc.Group)
		}
	}
}

// TestMinAntiAffinity: the Availability job of Fig 1 must take one node per
// rack, or nothing if a rack is full.
func TestMinAntiAffinity(t *testing.T) {
	n := 4
	rack1, rack2 := set(n, 0, 1), set(n, 2, 3)
	job := &strl.Min{Kids: []strl.Expr{
		&strl.NCk{Set: rack1, K: 1, Start: 0, Dur: 3, Value: 5},
		&strl.NCk{Set: rack2, K: 1, Start: 0, Dur: 3, Value: 5},
	}}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 3})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("objective = %v, want 5", sol.Objective)
	}
	grants := c.Decode(sol)
	if len(grants) != 2 {
		t.Fatalf("grants = %+v, want one per rack", grants)
	}

	// Rack 2 fully busy → min unsatisfiable → nothing scheduled.
	rel := []int64{0, 0, 9, 9}
	c2, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 3, ReleaseAt: rel})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol2 := solve(t, c2)
	if sol2.Objective > 1e-9 {
		t.Errorf("objective = %v, want 0", sol2.Objective)
	}
	if g := c2.Decode(sol2); len(g) != 0 {
		t.Errorf("grants = %+v, want none (anti-affinity unsatisfiable)", g)
	}
}

func TestScaleAndBarrier(t *testing.T) {
	n := 2
	leafA := &strl.NCk{Set: set(n, 0), K: 1, Start: 0, Dur: 1, Value: 2}
	leafB := &strl.NCk{Set: set(n, 1), K: 1, Start: 0, Dur: 1, Value: 3}
	// barrier(sum, 5) is satisfied only when both leaves are granted.
	job := &strl.Barrier{Kid: &strl.Sum{Kids: []strl.Expr{leafA, leafB}}, V: 5}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 1})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("barrier objective = %v, want 5", sol.Objective)
	}

	scaled := &strl.Scale{Kid: &strl.NCk{Set: full(n), K: 1, Start: 0, Dur: 1, Value: 2}, S: 2.5}
	c2, err := Compile([]strl.Expr{scaled}, Options{Universe: n, Horizon: 1})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol2 := solve(t, c2)
	if math.Abs(sol2.Objective-5) > 1e-6 {
		t.Fatalf("scale objective = %v, want 5", sol2.Objective)
	}
}

func TestLnCkPartialGrant(t *testing.T) {
	n := 3
	// LnCk over 3 nodes with k=3 but one node busy: expect a grant of 2 worth 2/3 of value.
	job := &strl.LnCk{Set: full(n), K: 3, Start: 0, Dur: 2, Value: 6}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 2, ReleaseAt: []int64{0, 0, 5}})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("objective = %v, want 4", sol.Objective)
	}
	g := c.Decode(sol)
	if len(g) != 1 || g[0].Total != 2 {
		t.Errorf("grants = %+v, want total 2", g)
	}
}

func TestCulledLeafOutOfWindow(t *testing.T) {
	n := 2
	job := &strl.Max{Kids: []strl.Expr{
		&strl.NCk{Set: full(n), K: 1, Start: 5, Dur: 1, Value: 10}, // beyond horizon
		&strl.NCk{Set: full(n), K: 1, Start: 0, Dur: 1, Value: 1},
	}}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 2})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Fatalf("objective = %v, want 1 (high-value leaf is outside the window)", sol.Objective)
	}
}

func TestCulledLeafInsufficientNodes(t *testing.T) {
	n := 2
	job := &strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 1, Value: 10}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 1, ReleaseAt: []int64{0, 7}})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if sol.Objective > 1e-9 {
		t.Errorf("objective = %v, want 0 (only 1 node free)", sol.Objective)
	}
}

func TestCompileErrors(t *testing.T) {
	n := 2
	good := &strl.NCk{Set: full(n), K: 1, Start: 0, Dur: 1, Value: 1}
	if _, err := Compile([]strl.Expr{good}, Options{Universe: 0, Horizon: 1}); err == nil {
		t.Errorf("zero universe accepted")
	}
	if _, err := Compile([]strl.Expr{good}, Options{Universe: n, Horizon: 0}); err == nil {
		t.Errorf("zero horizon accepted")
	}
	if _, err := Compile([]strl.Expr{good}, Options{Universe: n, Horizon: 1, ReleaseAt: []int64{0}}); err == nil {
		t.Errorf("bad ReleaseAt length accepted")
	}
	bad := &strl.Max{}
	if _, err := Compile([]strl.Expr{bad}, Options{Universe: n, Horizon: 1}); err == nil {
		t.Errorf("invalid expression accepted")
	}
}

func TestGangSharesSupply(t *testing.T) {
	// Two jobs each wanting 2 of 3 nodes at t=0: only one fits.
	n := 3
	j1 := &strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 1, Value: 1}
	j2 := &strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 1, Value: 1}
	c, err := Compile([]strl.Expr{j1, j2}, Options{Universe: n, Horizon: 1})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
}

func TestSeedWarmStart(t *testing.T) {
	n := 4
	gpus := set(n, 0, 1)
	job := &strl.Max{Kids: []strl.Expr{
		&strl.NCk{Set: gpus, K: 2, Start: 0, Dur: 2, Value: 4},
		&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 3, Value: 3},
	}}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Seed with the (suboptimal) fallback branch, the job's second leaf.
	vec := c.Components()[0].Seed(nil, []int32{1})
	if vec == nil {
		t.Fatalf("Seed gave no vector for a leaf that can be granted")
	}
	if !c.Model.IsFeasible(vec, 1e-6) {
		t.Fatalf("Seed produced infeasible point")
	}
	if obj := c.Model.ObjectiveValue(vec); math.Abs(obj-3) > 1e-6 {
		t.Fatalf("seed objective = %v, want 3", obj)
	}
	sol, err := milp.Solve(c.Model, milp.Options{InitialSolution: vec})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Errorf("warm-started solve objective = %v, want 4", sol.Objective)
	}
}

func TestAssignmentMatchesEval(t *testing.T) {
	n := 4
	gpus := set(n, 0, 1)
	job := &strl.Max{Kids: []strl.Expr{
		&strl.NCk{Set: gpus, K: 2, Start: 0, Dur: 2, Value: 4},
		&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 3, Value: 3},
	}}
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sol := solve(t, c)
	v, err := strl.Eval(job, c.Assignment(sol))
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if math.Abs(v-sol.Objective) > 1e-6 {
		t.Errorf("STRL eval = %v, MILP objective = %v", v, sol.Objective)
	}
}

// --- Brute-force equivalence ---------------------------------------------

// bfLeaf captures one leaf for brute-force search.
type bfLeaf struct {
	expr   strl.Expr
	set    *bitset.Set
	k      int
	linear bool
	start  int64
	dur    int64
}

// bruteForce finds the maximum total value over all structurally valid,
// supply-feasible grant combinations, by enumerating per-leaf grants and
// per-group splits.
func bruteForce(jobs []strl.Expr, opts Options) float64 {
	var leaves []bfLeaf
	var eqsets []*bitset.Set
	for _, j := range jobs {
		for _, l := range strl.Leaves(j) {
			switch x := l.(type) {
			case *strl.NCk:
				leaves = append(leaves, bfLeaf{expr: l, set: x.Set, k: x.K, start: x.Start, dur: x.Dur})
				eqsets = append(eqsets, x.Set)
			case *strl.LnCk:
				leaves = append(leaves, bfLeaf{expr: l, set: x.Set, k: x.K, linear: true, start: x.Start, dur: x.Dur})
				eqsets = append(eqsets, x.Set)
			}
		}
	}
	universe := bitset.New(opts.Universe)
	universe.Fill()
	part := cluster.Partition(universe, eqsets)
	// usage[g][t] accumulated; capacity from ReleaseAt.
	capacity := make([][]int, len(part.Groups))
	for g, grp := range part.Groups {
		capacity[g] = make([]int, opts.Horizon)
		grp.ForEach(func(nd int) bool {
			rel := int64(0)
			if opts.ReleaseAt != nil {
				rel = opts.ReleaseAt[nd]
			}
			for t := rel; t < opts.Horizon; t++ {
				capacity[g][t]++
			}
			return true
		})
	}
	usage := make([][]int, len(part.Groups))
	for g := range usage {
		usage[g] = make([]int, opts.Horizon)
	}

	best := 0.0
	assign := strl.Assignment{}

	var rec func(i int)
	place := func(i int, g, count int, then func()) {
		l := leaves[i]
		s, e := l.start, l.start+l.dur
		if s < 0 || s >= opts.Horizon {
			return
		}
		if e > opts.Horizon {
			e = opts.Horizon
		}
		for t := s; t < e; t++ {
			if usage[g][t]+count > capacity[g][t] {
				return
			}
		}
		for t := s; t < e; t++ {
			usage[g][t] += count
		}
		then()
		for t := s; t < e; t++ {
			usage[g][t] -= count
		}
	}
	var splits func(i int, remaining int, groups []int, then func())
	splits = func(i int, remaining int, groups []int, then func()) {
		if remaining == 0 {
			then()
			return
		}
		if len(groups) == 0 {
			return
		}
		g := groups[0]
		for c := 0; c <= remaining; c++ {
			c := c
			if c == 0 {
				splits(i, remaining, groups[1:], then)
			} else {
				place(i, g, c, func() { splits(i, remaining-c, groups[1:], then) })
			}
		}
	}
	rec = func(i int) {
		if i == len(leaves) {
			total := 0.0
			valid := true
			for _, j := range jobs {
				v, err := strl.Eval(j, assign)
				if err != nil {
					valid = false
					break
				}
				total += v
			}
			if valid && total > best {
				best = total
			}
			return
		}
		l := leaves[i]
		var grants []int
		if l.linear {
			for g := 0; g <= l.k; g++ {
				grants = append(grants, g)
			}
		} else {
			grants = []int{0, l.k}
		}
		for _, g := range grants {
			if g == 0 {
				assign[l.expr] = 0
				rec(i + 1)
				continue
			}
			assign[l.expr] = g
			splits(i, g, part.Cover[i], func() { rec(i + 1) })
		}
		assign[l.expr] = 0
	}
	rec(0)
	return best
}

// randomJob builds a small random job expression over n nodes.
func randomJob(r *rand.Rand, n int, horizon int64) strl.Expr {
	leaf := func() strl.Expr {
		s := bitset.New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				s.Add(i)
			}
		}
		if s.Empty() {
			s.Add(r.Intn(n))
		}
		k := 1 + r.Intn(minInt(2, s.Count()))
		start := int64(r.Intn(int(horizon)))
		dur := 1 + int64(r.Intn(2))
		v := float64(1 + r.Intn(9))
		if r.Intn(4) == 0 {
			return &strl.LnCk{Set: s, K: k, Start: start, Dur: dur, Value: v}
		}
		return &strl.NCk{Set: s, K: k, Start: start, Dur: dur, Value: v}
	}
	switch r.Intn(8) {
	case 0:
		return leaf()
	case 1:
		return &strl.Max{Kids: []strl.Expr{leaf(), leaf()}}
	case 2:
		return &strl.Min{Kids: []strl.Expr{leaf(), leaf()}}
	case 3:
		return &strl.Sum{Kids: []strl.Expr{leaf(), leaf()}}
	case 4:
		return &strl.Scale{Kid: &strl.Max{Kids: []strl.Expr{leaf(), leaf()}}, S: float64(1 + r.Intn(3))}
	case 5:
		return &strl.Barrier{Kid: leaf(), V: float64(1 + r.Intn(4))}
	case 6:
		// Nested: max over a min-pair and a leaf (soft anti-affinity).
		return &strl.Max{Kids: []strl.Expr{
			&strl.Min{Kids: []strl.Expr{leaf(), leaf()}},
			leaf(),
		}}
	default:
		// Nested: barrier over a scaled sum.
		return &strl.Barrier{
			Kid: &strl.Scale{Kid: &strl.Sum{Kids: []strl.Expr{leaf(), leaf()}}, S: 2},
			V:   float64(2 + r.Intn(6)),
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestQuickCompilerAgainstBruteForce is the central compiler invariant: the
// MILP optimum equals the brute-force best STRL valuation over all feasible
// grants.
func TestQuickCompilerAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4) // 2..5 nodes
		horizon := int64(1 + r.Intn(3))
		njobs := 1 + r.Intn(3) // 1..3 jobs
		jobs := make([]strl.Expr, njobs)
		for i := range jobs {
			jobs[i] = randomJob(r, n, horizon)
		}
		var rel []int64
		if r.Intn(2) == 0 {
			rel = make([]int64, n)
			for i := range rel {
				rel[i] = int64(r.Intn(3))
			}
		}
		opts := Options{Universe: n, Horizon: horizon, ReleaseAt: rel}
		c, err := Compile(jobs, opts)
		if err != nil {
			// Some random jobs are structurally invalid (k > |set| caught by
			// Validate); regenerate by accepting.
			return true
		}
		sol, err := milp.Solve(c.Model, milp.Options{})
		if err != nil {
			t.Logf("seed %d: solve error: %v\n%s", seed, err, c.Model)
			return false
		}
		if sol.Status != milp.StatusOptimal {
			t.Logf("seed %d: status %v", seed, sol.Status)
			return false
		}
		want := bruteForce(jobs, opts)
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Logf("seed %d: MILP=%v brute=%v\njobs: %v\nmodel:\n%s", seed, sol.Objective, want, jobs, c.Model)
			return false
		}
		// The decoded assignment must evaluate to the same objective.
		a := c.Assignment(sol)
		total := 0.0
		for _, j := range jobs {
			v, err := strl.Eval(j, a)
			if err != nil {
				t.Logf("seed %d: decode eval error: %v", seed, err)
				return false
			}
			total += v
		}
		if math.Abs(total-sol.Objective) > 1e-6 {
			t.Logf("seed %d: decoded eval=%v objective=%v", seed, total, sol.Objective)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompile40Jobs(b *testing.B) {
	n := 80
	r := rand.New(rand.NewSource(5))
	gpus := bitset.New(n)
	for i := 0; i < 20; i++ {
		gpus.Add(i)
	}
	jobs := make([]strl.Expr, 40)
	for j := range jobs {
		var kids []strl.Expr
		k := 1 + r.Intn(8)
		for s := int64(0); s < 12; s++ {
			kids = append(kids,
				&strl.NCk{Set: gpus, K: k, Start: s, Dur: 3, Value: 10 - float64(s)*0.5},
				&strl.NCk{Set: full(n), K: k, Start: s, Dur: 5, Value: 8 - float64(s)*0.5})
		}
		jobs[j] = &strl.Max{Kids: kids}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(jobs, Options{Universe: n, Horizon: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileAndSolve20Jobs(b *testing.B) {
	n := 40
	r := rand.New(rand.NewSource(5))
	gpus := bitset.New(n)
	for i := 0; i < 10; i++ {
		gpus.Add(i)
	}
	jobs := make([]strl.Expr, 20)
	for j := range jobs {
		var kids []strl.Expr
		k := 1 + r.Intn(5)
		for s := int64(0); s < 8; s++ {
			kids = append(kids,
				&strl.NCk{Set: gpus, K: k, Start: s, Dur: 3, Value: 10 - float64(s)*0.5},
				&strl.NCk{Set: full(n), K: k, Start: s, Dur: 5, Value: 8 - float64(s)*0.5})
		}
		jobs[j] = &strl.Max{Kids: kids}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Compile(jobs, Options{Universe: n, Horizon: 12})
		if err != nil {
			b.Fatal(err)
		}
		// The scheduler's production configuration: bounded solve with the
		// structure-aware incumbent heuristic.
		if _, err := milp.Solve(c.Model, milp.Options{
			Gap: 0.1, TimeLimit: 300 * time.Millisecond, Heuristic: c.GreedyRound,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStats(t *testing.T) {
	n := 4
	gpus := set(n, 0, 1)
	jobs := []strl.Expr{
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: gpus, K: 2, Start: 0, Dur: 2, Value: 4},
			&strl.NCk{Set: full(n), K: 2, Start: 1, Dur: 2, Value: 3},
			&strl.NCk{Set: full(n), K: 2, Start: 9, Dur: 3, Value: 3}, // out of window → culled
		}},
	}
	c, err := Compile(jobs, Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Jobs != 1 || st.Leaves != 3 || st.CulledLeafs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Groups != 2 || st.Vars != c.Model.NumVars() || st.Constraints == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.IntVars == 0 {
		t.Errorf("no integer vars counted: %+v", st)
	}
}

// TestBusyAtClaims: per-slice unavailability holes (greedy tentative claims)
// reduce availability exactly where claimed.
func TestBusyAtClaims(t *testing.T) {
	n := 2
	job := &strl.Max{Kids: []strl.Expr{
		&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 2, Value: 5},
		&strl.NCk{Set: full(n), K: 2, Start: 2, Dur: 2, Value: 4},
	}}
	// Node 1 claimed during slices [0,2): only the deferred option fits.
	busy := func(node int, t int64) bool { return node == 1 && t < 2 }
	c, err := Compile([]strl.Expr{job}, Options{Universe: n, Horizon: 4, BusyAt: busy})
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, c)
	if math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("objective = %v, want 4 (deferred option)", sol.Objective)
	}
	g := c.Decode(sol)
	if len(g) != 1 || g[0].Start != 2 {
		t.Errorf("grants = %+v, want start=2", g)
	}
}
