package compiler

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

func TestGreedyRoundProducesFeasibleIncumbent(t *testing.T) {
	n := 6
	gpus := set(n, 0, 1, 2)
	jobs := []strl.Expr{
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: gpus, K: 3, Start: 0, Dur: 2, Value: 100},
			&strl.NCk{Set: full(n), K: 3, Start: 0, Dur: 3, Value: 80},
		}},
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: gpus, K: 3, Start: 0, Dur: 2, Value: 100},
			&strl.NCk{Set: gpus, K: 3, Start: 2, Dur: 2, Value: 99},
			&strl.NCk{Set: full(n), K: 3, Start: 0, Dur: 3, Value: 80},
		}},
	}
	c, err := Compile(jobs, Options{Universe: n, Horizon: 5})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Feed a fabricated "relaxation" that half-prefers every GPU branch.
	x := make([]float64, c.Model.NumVars())
	for i := range x {
		x[i] = 0.5
	}
	cand := c.GreedyRound(x)
	if cand == nil {
		t.Fatal("GreedyRound returned nil on satisfiable instance")
	}
	if !c.Model.IsFeasible(cand, 1e-6) {
		t.Fatalf("GreedyRound candidate infeasible")
	}
	if obj := c.Model.ObjectiveValue(cand); obj < 179 {
		// Both jobs schedulable: one on GPUs now, one elsewhere or deferred.
		t.Errorf("greedy objective = %v, want ≥ 179", obj)
	}
}

func TestGreedyRoundSkipsUnroundableShapes(t *testing.T) {
	n := 4
	jobs := []strl.Expr{
		&strl.Min{Kids: []strl.Expr{
			&strl.NCk{Set: set(n, 0, 1), K: 1, Start: 0, Dur: 1, Value: 5},
			&strl.NCk{Set: set(n, 2, 3), K: 1, Start: 0, Dur: 1, Value: 5},
		}},
		&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 1, Value: 3},
	}
	c, err := Compile(jobs, Options{Universe: n, Horizon: 2})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	x := make([]float64, c.Model.NumVars())
	cand := c.GreedyRound(x)
	// The MIN job is skipped; the plain nCk is granted.
	if cand == nil {
		t.Fatal("expected a candidate covering the roundable job")
	}
	if !c.Model.IsFeasible(cand, 1e-6) {
		t.Fatalf("candidate infeasible")
	}
	if obj := c.Model.ObjectiveValue(cand); math.Abs(obj-3) > 1e-9 {
		t.Errorf("objective = %v, want 3 (nCk only)", obj)
	}
}

func TestGreedyRoundRespectsCapacity(t *testing.T) {
	n := 3
	// Three jobs each wanting 2 of 3 nodes at t=0: only one fits.
	var jobs []strl.Expr
	for i := 0; i < 3; i++ {
		jobs = append(jobs, &strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 1, Value: 1})
	}
	c, err := Compile(jobs, Options{Universe: n, Horizon: 1})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	x := make([]float64, c.Model.NumVars())
	cand := c.GreedyRound(x)
	if cand == nil {
		t.Fatal("nil candidate")
	}
	if !c.Model.IsFeasible(cand, 1e-6) {
		t.Fatalf("candidate violates supply")
	}
	if obj := c.Model.ObjectiveValue(cand); math.Abs(obj-1) > 1e-9 {
		t.Errorf("objective = %v, want exactly 1", obj)
	}
}

// TestSolveWithHeuristicMatchesExact: plugging the heuristic into the solver
// must not change optimality on exactly-solved instances.
func TestSolveWithHeuristicMatchesExact(t *testing.T) {
	n := 4
	gpus := set(n, 0, 1)
	jobs := []strl.Expr{
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: gpus, K: 2, Start: 0, Dur: 2, Value: 4},
			&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 3, Value: 3},
		}},
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: gpus, K: 2, Start: 0, Dur: 2, Value: 4},
			&strl.NCk{Set: gpus, K: 2, Start: 2, Dur: 2, Value: 3.9},
			&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 3, Value: 3},
		}},
	}
	c, err := Compile(jobs, Options{Universe: n, Horizon: 5})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	exact, err := milp.Solve(c.Model, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withH, err := milp.Solve(c.Model, milp.Options{Heuristic: c.GreedyRound})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Objective-withH.Objective) > 1e-6 {
		t.Errorf("heuristic changed the optimum: %v vs %v", withH.Objective, exact.Objective)
	}
}

// TestQuickSeedFeasibility: wanting any single leaf of a batch seeds exactly
// the component holding its job, with a point feasible in that component's
// model — the invariant the scheduler's warm start relies on — under the
// natural decomposition and a forced one, unless the leaf is culled, is not
// there, or its job is no MAX of leaves; then, and in every other component, the
// seed is nil. The batches are the generator's shape (cycleBatch) and, every
// third one, small trees of every shape.
func TestQuickSeedFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		jobs, opts := cycleBatch(seed, 2+r.Intn(12))
		if seed%3 == 0 {
			n := 2 + r.Intn(5)
			opts = Options{Universe: n, Horizon: int64(1 + r.Intn(4))}
			jobs = jobs[:0]
			for j := 0; j < 1+r.Intn(3); j++ {
				jobs = append(jobs, randomJob(r, n, opts.Horizon))
			}
		}
		c, err := Compile(jobs, opts)
		if err != nil {
			return true // structurally invalid random job; skip
		}
		assign := make([]int, len(jobs))
		for j := range assign {
			assign[j] = r.Intn(3)
		}
		want := make([]int32, len(jobs))
		for _, comps := range [][]*Component{c.Components(), c.ForcedComponents(assign, 2)} {
			for j, job := range jobs {
				recs := c.jobLeaves(j)
				for w := 0; w <= len(recs); w++ { // the last is no leaf of the job
					for i := range want {
						want[i] = -1
					}
					want[j] = int32(w)
					seedable := w < len(recs) && !recs[w].culled && roundable(job)
					for ci, cc := range comps {
						vec := cc.Seed(nil, want)
						if !seedable || !slices.Contains(cc.Jobs, j) {
							if vec != nil {
								t.Logf("seed %d: component %d seeded by leaf %d of job %d", seed, ci, w, j)
								return false
							}
							continue
						}
						if len(vec) != cc.Model.NumVars() || !cc.Model.IsFeasible(vec, 1e-6) {
							t.Logf("seed %d: leaf %d of job %d seeds %v, infeasible in component %d", seed, w, j, vec, ci)
							return false
						}
						if got, v := cc.Model.ObjectiveValue(vec), leafValue(recs[w].expr); math.Abs(got-v) > 1e-9 {
							t.Logf("seed %d: leaf %d of job %d seeds a point worth %v, the leaf is worth %v", seed, w, j, got, v)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRoundOrderIgnoresSlackIndicator: jobs are ranked by the LP mass on
// their options, never by a MAX job's own indicator — which would have no
// objective and one row (Σ kids − ind ≤ 0), slack anywhere in [Σ kids, 1], so
// the compiler emits none: a MAX job's first variable is its first live
// option's indicator, and no variable of the job is left that is not an
// option's indicator or a partition variable.
func TestRoundOrderIgnoresSlackIndicator(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		jobs, opts := cycleBatch(seed, 30)
		c, err := Compile(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for j, job := range jobs {
			if _, isMax := job.(*strl.Max); !isMax {
				continue
			}
			n := 0 // the job's option indicators and partition variables
			for _, rec := range c.jobLeaves(j) {
				if rec.culled {
					continue
				}
				if n == 0 && int(rec.ind) != c.job[j].varLo {
					t.Fatalf("seed %d: MAX job %d starts with variable %d, not its first option's indicator %d", seed, j, c.job[j].varLo, rec.ind)
				}
				n += 1 + rec.partN
			}
			if own := c.job[j+1].varLo - c.job[j].varLo; own != n {
				t.Fatalf("seed %d: MAX job %d has %d variables, %d of them options' indicators and partition variables", seed, j, own, n)
			}
		}
	}

	// Four nodes, two windows. The LP put a quarter of the 3-wide job in the
	// first window and all of the 2-wide job, whose options are both there.
	// Batch order grants the wide job the first window and strands the other.
	n := 4
	jobs := []strl.Expr{
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: full(n), K: 3, Start: 0, Dur: 1, Value: 3},
			&strl.NCk{Set: full(n), K: 3, Start: 1, Dur: 1, Value: 3},
		}},
		&strl.Max{Kids: []strl.Expr{
			&strl.NCk{Set: set(n, 0, 1), K: 2, Start: 0, Dur: 1, Value: 2},
			&strl.NCk{Set: full(n), K: 2, Start: 0, Dur: 1, Value: 1.5},
		}},
	}
	c, err := Compile(jobs, Options{Universe: n, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, c.Model.NumVars())
	x[c.job[0].varLo], x[c.jobLeaves(0)[0].ind] = 1, 0.25
	x[c.job[1].varLo], x[c.jobLeaves(1)[0].ind] = 1, 1
	cand := c.GreedyRound(x)
	if cand == nil || !c.Model.IsFeasible(cand, 1e-6) {
		t.Fatalf("no feasible candidate: %v", cand)
	}
	if obj := c.Model.ObjectiveValue(cand); math.Abs(obj-5) > 1e-9 {
		t.Errorf("objective = %v, want 5: the fully placed job first, the wide one in the second window (batch order gets 3)", obj)
	}
}

// TestRoundInPlaceAllocatesNothing: the solver rounds at every node of the
// search, so a steady-state rounding — of a component of a forced
// decomposition and of the whole batch — writes its candidate over the point
// it is given and takes everything else from the Scratch.
func TestRoundInPlaceAllocatesNothing(t *testing.T) {
	jobs, opts := cycleBatch(3, 30)
	var scr Scratch
	c, err := scr.Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	x := make([]float64, c.Model.NumVars())
	for i := range x {
		x[i] = float64(r.Intn(5)) / 4
	}
	buf := make([]float64, len(x))
	rounded := 0
	for _, cc := range append(c.ForcedComponents(fourClasses(len(jobs)), -1), nil) {
		round, pt := c.RoundInPlace, x
		if cc != nil {
			round, pt = cc.RoundInPlace, project(cc, x)
		}
		one := func() {
			if round(buf[:copy(buf, pt)]) != nil {
				rounded++
			}
		}
		one() // the first call sizes the buffers
		if n := testing.AllocsPerRun(50, one); n != 0 {
			t.Errorf("a rounding allocates %v times", n)
		}
	}
	if rounded == 0 {
		t.Fatal("no rounding granted anything")
	}
}

// TestRoundInPlaceConcurrent: concurrent sub-solves of one Compiled's
// components round on it at once, each on a point of its own; the shared
// working memory must not leak between them (run under -race).
func TestRoundInPlaceConcurrent(t *testing.T) {
	jobs, opts := cycleBatch(5, 24)
	c, err := Compile(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	comps := c.ForcedComponents(fourClasses(len(jobs)), -1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				cc := comps[r.Intn(len(comps))]
				x := make([]float64, len(cc.VarMap))
				for i := range x {
					x[i] = float64(r.Intn(5)) / 4
				}
				want := cc.GreedyRound(x)
				if got := cc.RoundInPlace(x); !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: a rounding changed under concurrency", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
