package tetrisched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tetrisched/internal/bitset"
	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// batchedModel compiles a Fig 12-style aggregate model: `jobs` STRL requests
// over an 80-node cluster, each a Max over deferred start options, all
// sharing capacity — the shape the global scheduler hands the solver each
// cycle, scaled by batch size.
func batchedModel(tb testing.TB, jobs int, seed int64) *compiler.Compiled {
	tb.Helper()
	const nodes = 80
	const horizon = 12
	r := rand.New(rand.NewSource(seed))
	all := bitset.New(nodes)
	all.Fill()
	exprs := make([]strl.Expr, jobs)
	for j := 0; j < jobs; j++ {
		k := 1 + r.Intn(12)
		dur := int64(1 + r.Intn(4))
		value := 1 + r.Float64()*9
		var kids []strl.Expr
		for s := int64(0); s+dur <= horizon; s += 2 {
			// Later starts are worth less, like deadline-driven decay.
			v := value * (1 - float64(s)/float64(2*horizon))
			kids = append(kids, &strl.NCk{Set: all, K: k, Start: s, Dur: dur, Value: v})
		}
		exprs[j] = &strl.Max{Kids: kids}
	}
	comp, err := compiler.Compile(exprs, compiler.Options{Universe: nodes, Horizon: horizon})
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}

// TestSolverParityWarmVsCold flips the warm-start kill switch on exact solves:
// dual-simplex re-solves from parent bases must change solve speed only, never
// the objective. The stats assertions keep the switch honest — the warm run
// must actually warm-start and the cold run must not.
func TestSolverParityWarmVsCold(t *testing.T) {
	comp := batchedModel(t, 24, 2)
	var want float64
	for i, opts := range []milp.Options{
		{},
		{DisableWarmStart: true},
	} {
		opts.Heuristic = comp.GreedyRound
		sol, err := milp.Solve(comp.Model, opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sol.Status != milp.StatusOptimal {
			t.Fatalf("case %d: status %v", i, sol.Status)
		}
		if i == 0 {
			want = sol.Objective
		} else if diff := sol.Objective - want; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("case %d (cold=%v): objective %.9f != %.9f",
				i, opts.DisableWarmStart, sol.Objective, want)
		}
		if opts.DisableWarmStart {
			if sol.LP.WarmHits != 0 || sol.LP.WarmFallbacks != 0 {
				t.Errorf("case %d: kill switch left warm activity %+v", i, sol.LP)
			}
		} else if sol.Nodes > 1 && sol.LP.WarmHits == 0 {
			t.Errorf("case %d: %d nodes explored but no warm hits %+v", i, sol.Nodes, sol.LP)
		}
	}
}

// TestWarmStartHitRate pins the acceptance bar: on a Fig 12-style batched
// exact solve, >80% of branch-and-bound node LPs must re-solve warm from
// their parent basis (only the root is inherently cold).
func TestWarmStartHitRate(t *testing.T) {
	for _, jobs := range []int{16, 24} {
		comp := batchedModel(t, jobs, 2)
		sol, err := milp.Solve(comp.Model, milp.Options{Heuristic: comp.GreedyRound})
		if err != nil {
			t.Fatalf("batch%d: %v", jobs, err)
		}
		if sol.Nodes < 10 {
			t.Fatalf("batch%d explored only %d nodes; instance too easy to measure hit rate", jobs, sol.Nodes)
		}
		rate := float64(sol.LP.WarmHits) / float64(sol.Nodes)
		t.Logf("batch%d: nodes=%d LP=%+v hit rate=%.1f%%", jobs, sol.Nodes, sol.LP, 100*rate)
		if rate <= 0.8 {
			t.Errorf("batch%d: warm-start hit rate %.1f%% ≤ 80%%", jobs, 100*rate)
		}
	}
}

// BenchmarkBatchedSolve*Serial measure the same Fig 12-style aggregate solve
// to a 10% gap at batch sizes 8 to 480. Every solve is one serial search; the
// names keep their history in BENCH_milp.json.
func benchBatchedSolve(b *testing.B, jobs int) {
	comp := batchedModel(b, jobs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := milp.Solve(comp.Model, milp.Options{
			Gap:       0.1,
			Heuristic: comp.GreedyRound,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Values == nil {
			b.Fatal("no solution")
		}
	}
}

func BenchmarkBatchedSolve8Serial(b *testing.B)  { benchBatchedSolve(b, 8) }
func BenchmarkBatchedSolve24Serial(b *testing.B) { benchBatchedSolve(b, 24) }
func BenchmarkBatchedSolve48Serial(b *testing.B) { benchBatchedSolve(b, 48) }

// decomposableModel compiles a batch that provably splits: nBlocks disjoint
// node blocks with jobsPer jobs each, every job a Max over deferred starts on
// its own block. Blocks never share capacity, so Components() must return at
// least nBlocks sub-models (more when light per-block contention drops supply
// rows and decouples jobs further).
func decomposableModel(tb testing.TB, nBlocks, jobsPer int, seed int64) *compiler.Compiled {
	tb.Helper()
	const horizon = 8
	r := rand.New(rand.NewSource(seed))
	blockSize := 6 + r.Intn(6)
	nodes := nBlocks * blockSize
	var exprs []strl.Expr
	for blk := 0; blk < nBlocks; blk++ {
		set := bitset.New(nodes)
		for n := blk * blockSize; n < (blk+1)*blockSize; n++ {
			set.Add(n)
		}
		for j := 0; j < jobsPer; j++ {
			k := 1 + r.Intn(blockSize)
			dur := int64(1 + r.Intn(3))
			value := 1 + r.Float64()*9
			stride := int64(1 + r.Intn(2))
			var kids []strl.Expr
			for s := int64(0); s+dur <= horizon; s += stride {
				v := value * (1 - float64(s)/float64(2*horizon))
				kids = append(kids, &strl.NCk{Set: set, K: k, Start: s, Dur: dur, Value: v})
			}
			exprs = append(exprs, &strl.Max{Kids: kids})
		}
	}
	comp, err := compiler.Compile(exprs, compiler.Options{Universe: nodes, Horizon: horizon})
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}

// componentParts wraps a compiled batch's components as milp.Parts.
func componentParts(comps []*compiler.Component) []milp.Part {
	parts := make([]milp.Part, len(comps))
	for i, cc := range comps {
		parts[i] = milp.Part{Model: cc.Model, VarMap: cc.VarMap, Heuristic: cc.GreedyRound}
	}
	return parts
}

// TestDecompositionParityProperty is the property test of the decomposition
// acceptance criteria: across ≥200 seeded random decomposable instances, the
// monolithic and decomposed solves must agree on objective within the
// configured gap, merged telemetry must equal the sum over components, the
// merged point must be feasible for the full model, and repeated
// deterministic decomposed solves must return byte-identical decisions.
func TestDecompositionParityProperty(t *testing.T) {
	const instances = 220
	for i := 0; i < instances; i++ {
		seed := int64(1000 + i)
		r := rand.New(rand.NewSource(seed))
		nBlocks := 2 + r.Intn(3)
		jobsPer := 1 + r.Intn(3)
		comp := decomposableModel(t, nBlocks, jobsPer, seed)
		gap := 0.0
		if i%3 == 1 {
			gap = 0.1
		}
		opts := milp.Options{Gap: gap}

		monoOpts := opts
		monoOpts.Heuristic = comp.GreedyRound
		mono, err := milp.Solve(comp.Model, monoOpts)
		if err != nil {
			t.Fatalf("seed %d: monolithic solve: %v", seed, err)
		}

		comps := comp.Components()
		if len(comps) < nBlocks {
			t.Fatalf("seed %d: %d components for %d disjoint blocks", seed, len(comps), nBlocks)
		}
		merged, partSols, err := milp.SolveParts(componentParts(comps), comp.Model.NumVars(), opts)
		if err != nil {
			t.Fatalf("seed %d: decomposed solve: %v", seed, err)
		}
		if merged.Values == nil {
			t.Fatalf("seed %d: decomposed solve returned no values (status %v)", seed, merged.Status)
		}

		// Objective parity within the configured gap: each side is within gap
		// of the true optimum, and obj ≤ OPT ≤ max(obj)/(1−gap).
		tol := 1e-6
		if gap > 0 {
			tol += gap / (1 - gap) * math.Max(math.Abs(mono.Objective), math.Abs(merged.Objective))
		}
		if diff := math.Abs(mono.Objective - merged.Objective); diff > tol {
			t.Errorf("seed %d (gap %.2f): monolithic %.9f vs decomposed %.9f differ by %.9f > %.9f",
				seed, gap, mono.Objective, merged.Objective, diff, tol)
		}
		if !comp.Model.IsFeasible(merged.Values, 1e-6) {
			t.Errorf("seed %d: merged decomposed point infeasible for the full model", seed)
		}

		// Merged telemetry equals the sum over components.
		var nodes int
		var iters int64
		var warm, cold int
		var runtime int64
		for ci, ps := range partSols {
			if ps == nil {
				t.Fatalf("seed %d: component %d failed", seed, ci)
			}
			nodes += ps.Nodes
			iters += ps.LP.Iterations
			warm += ps.LP.WarmHits
			cold += ps.LP.ColdStarts
			runtime += int64(ps.Runtime)
		}
		if merged.Nodes != nodes || merged.LP.Iterations != iters ||
			merged.LP.WarmHits != warm || merged.LP.ColdStarts != cold ||
			int64(merged.Runtime) != runtime {
			t.Errorf("seed %d: merged stats (nodes=%d iters=%d warm=%d cold=%d runtime=%d) != part sums (%d %d %d %d %d)",
				seed, merged.Nodes, merged.LP.Iterations, merged.LP.WarmHits, merged.LP.ColdStarts, int64(merged.Runtime),
				nodes, iters, warm, cold, runtime)
		}

		// Deterministic decomposed solves return byte-identical decisions.
		if i%8 == 0 {
			again, _, err := milp.SolveParts(componentParts(comp.Components()), comp.Model.NumVars(), opts)
			if err != nil {
				t.Fatalf("seed %d: repeat decomposed solve: %v", seed, err)
			}
			if !reflect.DeepEqual(merged.Values, again.Values) {
				t.Errorf("seed %d: deterministic decomposed runs diverged", seed)
			}
		}
	}
}

// benchComponentSolve measures the same decomposable 12-job instance solved
// as one coupled MILP vs. split into its components — the multiplicative
// search-tree shrink the decomposition exists for.
func benchComponentSolve(b *testing.B, split bool) {
	comp := decomposableModel(b, 4, 3, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if split {
			merged, _, err := milp.SolveParts(componentParts(comp.Components()), comp.Model.NumVars(),
				milp.Options{Gap: 0.1})
			if err != nil || merged.Values == nil {
				b.Fatalf("decomposed solve failed: %v (%v)", err, merged)
			}
		} else {
			sol, err := milp.Solve(comp.Model, milp.Options{Gap: 0.1, Heuristic: comp.GreedyRound})
			if err != nil || sol.Values == nil {
				b.Fatalf("monolithic solve failed: %v", err)
			}
		}
	}
}

func BenchmarkBatchedSolveComponentsMono(b *testing.B)  { benchComponentSolve(b, false) }
func BenchmarkBatchedSolveComponentsSplit(b *testing.B) { benchComponentSolve(b, true) }

func BenchmarkBatchedSolve480Serial(b *testing.B) { benchBatchedSolve(b, 480) }

// TestBasisEngineParityProperty is the property test of the LU acceptance
// criteria: across ≥200 seeded compiled instances, a solve to the scheduler's
// gap on the sparse LU engine is within that gap of the exact optimum (a
// gap-0 solve of the same model) and never above it, and reruns are
// byte-identical. Across the suite the default configuration must actually
// exercise the LU engine's eta updates and pseudocost branching. (The LU
// engine is checked against a dense reference inverse in internal/milp's
// lu_test.go.)
func TestBasisEngineParityProperty(t *testing.T) {
	const instances = 220
	var luEtas, luFactors, pcBranches int64
	for i := 0; i < instances; i++ {
		seed := int64(9000 + i)
		r := rand.New(rand.NewSource(seed))
		var comp *compiler.Compiled
		if i%2 == 0 {
			comp = batchedModel(t, 2+r.Intn(8), seed)
		} else {
			comp = decomposableModel(t, 1+r.Intn(3), 1+r.Intn(3), seed)
		}
		gap := 0.0
		if i%3 == 1 {
			gap = 0.1
		}
		base := milp.Options{Gap: gap, Heuristic: comp.GreedyRound}

		lu, err := milp.Solve(comp.Model, base)
		if err != nil {
			t.Fatalf("seed %d: LU solve: %v", seed, err)
		}
		exact := lu
		if gap > 0 {
			opts := base
			opts.Gap = 0
			if exact, err = milp.Solve(comp.Model, opts); err != nil {
				t.Fatalf("seed %d: exact solve: %v", seed, err)
			}
		}
		if lu.Values == nil || exact.Values == nil {
			t.Fatalf("seed %d: missing values (gap %.2f: %v, exact: %v)", seed, gap, lu.Status, exact.Status)
		}
		// The gapped answer is feasible, so it cannot beat the optimum, and
		// its search stopped within gap of its bound, so it is within gap of
		// the optimum.
		if over := lu.Objective - exact.Objective; over > 1e-6 {
			t.Errorf("seed %d (gap %.2f): %.9f beats the exact optimum %.9f", seed, gap, lu.Objective, exact.Objective)
		}
		if short, tol := exact.Objective-lu.Objective, gap*math.Max(1, math.Abs(lu.Objective))+1e-6; short > tol {
			t.Errorf("seed %d (gap %.2f): %.9f is %.9f short of the exact optimum %.9f, more than %.9f",
				seed, gap, lu.Objective, short, exact.Objective, tol)
		}

		// Deterministic LU reruns are byte-identical.
		if i%8 == 0 {
			again, err := milp.Solve(comp.Model, base)
			if err != nil {
				t.Fatalf("seed %d: repeat LU solve: %v", seed, err)
			}
			if !reflect.DeepEqual(lu.Values, again.Values) {
				t.Errorf("seed %d: deterministic LU runs diverged", seed)
			}
		}

		luEtas += lu.LP.EtaUpdates
		luFactors += lu.LP.Factorizations
		pcBranches += lu.Branch.Pseudocost
	}
	// Positive-side honesty: across 220 instances the default configuration
	// must actually run the LU engine and learn pseudocosts.
	if luEtas == 0 {
		t.Error("no sparse eta updates across the whole suite; LU path not exercised")
	}
	if luFactors == 0 {
		t.Error("no factorizations across the whole suite; LU path not exercised")
	}
	if pcBranches == 0 {
		t.Error("no pseudocost branching decisions across the whole suite")
	}
}
