package milp

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// knapsack builds a tiny 0/1 model: maximize Σ value_i·x_i subject to
// Σ weight_i·x_i ≤ cap.
func knapsack(values, weights []float64, cap float64) *Model {
	m := &Model{}
	terms := make([]Term, len(values))
	for i, v := range values {
		id := m.AddVar(Binary, 0, 1, v)
		terms[i] = Term{Var: id, Coef: weights[i]}
	}
	m.AddConstraint(terms, LE, cap)
	return m
}

func seqVarMap(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// TestDecomposeSolvePartsMatchesIndependentSolves is the stats-merging
// acceptance test: the merged Solution's Values, Objective, Bound, Nodes, LP
// telemetry, and Runtime must equal the per-part solutions combined.
func TestDecomposeSolvePartsMatchesIndependentSolves(t *testing.T) {
	models := []*Model{
		knapsack([]float64{5, 4, 3}, []float64{2, 3, 1}, 4),
		knapsack([]float64{7, 1}, []float64{1, 1}, 1),
		knapsack([]float64{2, 2, 2, 2}, []float64{1, 1, 1, 1}, 2),
	}
	fullVars := 0
	parts := make([]Part, len(models))
	for i, m := range models {
		parts[i] = Part{Model: m, VarMap: seqVarMap(fullVars, m.NumVars())}
		fullVars += m.NumVars()
	}
	merged, sols, err := SolveParts(parts, fullVars, Options{})
	if err != nil {
		t.Fatalf("SolveParts: %v", err)
	}
	if merged.Status != StatusOptimal {
		t.Fatalf("merged status = %v, want optimal", merged.Status)
	}
	if len(merged.Values) != fullVars {
		t.Fatalf("merged values len %d, want %d", len(merged.Values), fullVars)
	}
	var obj, bound float64
	var nodes int
	var iters int64
	var warm, cold int
	for i, sol := range sols {
		if sol == nil {
			t.Fatalf("part %d solution is nil", i)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("part %d status = %v", i, sol.Status)
		}
		obj += sol.Objective
		bound += sol.Bound
		nodes += sol.Nodes
		iters += sol.LP.Iterations
		warm += sol.LP.WarmHits
		cold += sol.LP.ColdStarts
		lo := parts[i].VarMap[0]
		for si, v := range sol.Values {
			if merged.Values[lo+si] != v {
				t.Fatalf("part %d var %d: merged %v != part %v", i, si, merged.Values[lo+si], v)
			}
		}
		// Each part must also agree with a direct Solve of its model.
		direct, err := Solve(parts[i].Model, Options{})
		if err != nil {
			t.Fatalf("direct solve %d: %v", i, err)
		}
		if math.Abs(direct.Objective-sol.Objective) > 1e-9 {
			t.Errorf("part %d objective %v != direct %v", i, sol.Objective, direct.Objective)
		}
	}
	if math.Abs(merged.Objective-obj) > 1e-9 || math.Abs(merged.Bound-bound) > 1e-9 {
		t.Errorf("merged obj/bound = %v/%v, want sums %v/%v", merged.Objective, merged.Bound, obj, bound)
	}
	if merged.Nodes != nodes {
		t.Errorf("merged nodes = %d, want sum %d", merged.Nodes, nodes)
	}
	if merged.LP.Iterations != iters || merged.LP.WarmHits != warm || merged.LP.ColdStarts != cold {
		t.Errorf("merged LP stats %+v, want sums iters=%d warm=%d cold=%d", merged.LP, iters, warm, cold)
	}
	var runtime int64
	for _, sol := range sols {
		runtime += int64(sol.Runtime)
	}
	if int64(merged.Runtime) != runtime {
		t.Errorf("merged runtime %v != sum of part runtimes %v", merged.Runtime, runtime)
	}
}

// TestDecomposeDeterministicAcrossRuns: repeated decomposed solves of the
// same parts return byte-identical merged values.
func TestDecomposeDeterministicAcrossRuns(t *testing.T) {
	build := func() ([]Part, int) {
		models := []*Model{
			knapsack([]float64{5, 4, 3, 2}, []float64{2, 3, 1, 2}, 4),
			knapsack([]float64{7, 1, 4}, []float64{1, 1, 2}, 2),
		}
		fullVars := 0
		parts := make([]Part, len(models))
		for i, m := range models {
			parts[i] = Part{Model: m, VarMap: seqVarMap(fullVars, m.NumVars())}
			fullVars += m.NumVars()
		}
		return parts, fullVars
	}
	parts, fullVars := build()
	first, _, err := SolveParts(parts, fullVars, Options{})
	if err != nil {
		t.Fatalf("SolveParts: %v", err)
	}
	for run := 0; run < 5; run++ {
		parts, fullVars := build()
		again, _, err := SolveParts(parts, fullVars, Options{})
		if err != nil {
			t.Fatalf("SolveParts run %d: %v", run, err)
		}
		if !reflect.DeepEqual(first.Values, again.Values) {
			t.Fatalf("run %d: values diverged\n%v\n%v", run, first.Values, again.Values)
		}
	}
}

// TestDecomposeMergePartialFailure pins the partial-failure semantics: a part
// with no solution leaves its variables zero and degrades the merged status
// to feasible, while the surviving parts' stats still aggregate.
func TestDecomposeMergePartialFailure(t *testing.T) {
	m1 := knapsack([]float64{5}, []float64{1}, 1)
	m2 := knapsack([]float64{3}, []float64{1}, 1)
	s1, err := Solve(m1, Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	parts := []Part{
		{Model: m1, VarMap: []int{0}},
		{Model: m2, VarMap: []int{1}},
	}
	merged := mergeParts(parts, []*Solution{s1, nil}, 2, new(Solution))
	if merged.Status != StatusFeasible {
		t.Fatalf("merged status = %v, want feasible", merged.Status)
	}
	if merged.Values == nil || merged.Values[0] != 1 || merged.Values[1] != 0 {
		t.Fatalf("merged values = %v, want [1 0]", merged.Values)
	}
	if math.Abs(merged.Objective-5) > 1e-9 || merged.Nodes != s1.Nodes {
		t.Errorf("merged obj/nodes = %v/%d, want 5/%d", merged.Objective, merged.Nodes, s1.Nodes)
	}
}

// TestDecomposeInfeasiblePartPoisonsMerge: the full model is infeasible iff
// any part is, and an infeasible merge must not hand back partial values.
func TestDecomposeInfeasiblePartPoisonsMerge(t *testing.T) {
	bad := &Model{}
	x := bad.AddVar(Binary, 0, 1, 1)
	bad.AddConstraint([]Term{{Var: x, Coef: -1}}, LE, -2) // x ≥ 2
	parts := []Part{
		{Model: knapsack([]float64{5}, []float64{1}, 1), VarMap: []int{0}},
		{Model: bad, VarMap: []int{1}},
	}
	merged, _, err := SolveParts(parts, 2, Options{})
	if err != nil {
		t.Fatalf("SolveParts: %v", err)
	}
	if merged.Status != StatusInfeasible {
		t.Fatalf("merged status = %v, want infeasible", merged.Status)
	}
	if merged.Values != nil {
		t.Fatalf("infeasible merge returned values %v", merged.Values)
	}
}

// TestDecomposeSeedAndHooksRouted: per-part seeds reach the sub-solver and
// OnSolve wraps each part's solve exactly once, in its goroutine.
func TestDecomposeSeedAndHooksRouted(t *testing.T) {
	models := []*Model{
		knapsack([]float64{5, 4}, []float64{2, 3}, 4),
		knapsack([]float64{7, 1}, []float64{1, 1}, 1),
	}
	var mu sync.Mutex
	began, ended := 0, 0
	parts := make([]Part, len(models))
	fullVars := 0
	for i, m := range models {
		parts[i] = Part{
			Model:  m,
			VarMap: seqVarMap(fullVars, m.NumVars()),
			Seed:   make([]float64, m.NumVars()), // all-zero: feasible incumbent
			OnSolve: func() func(*Solution) {
				mu.Lock()
				began++
				mu.Unlock()
				return func(sol *Solution) {
					mu.Lock()
					defer mu.Unlock()
					ended++
					if sol == nil || sol.Status != StatusOptimal {
						t.Errorf("hook saw solution %+v, want optimal", sol)
					}
				}
			},
		}
		fullVars += m.NumVars()
	}
	merged, _, err := SolveParts(parts, fullVars, Options{})
	if err != nil {
		t.Fatalf("SolveParts: %v", err)
	}
	if merged.Status != StatusOptimal {
		t.Fatalf("merged status = %v", merged.Status)
	}
	if began != len(parts) || ended != len(parts) {
		t.Errorf("hooks ran begin=%d end=%d, want %d each", began, ended, len(parts))
	}
}

// TestDecomposeValidation: structural input errors are reported, not solved
// around.
func TestDecomposeValidation(t *testing.T) {
	m := knapsack([]float64{1}, []float64{1}, 1)
	if _, _, err := SolveParts(nil, 1, Options{}); err == nil {
		t.Error("empty parts should error")
	}
	if _, _, err := SolveParts([]Part{{Model: m, VarMap: []int{0, 1}}}, 2, Options{}); err == nil {
		t.Error("VarMap length mismatch should error")
	}
	if _, _, err := SolveParts([]Part{{Model: m, VarMap: []int{5}}}, 2, Options{}); err == nil {
		t.Error("out-of-range VarMap should error")
	}
	if _, _, err := SolveParts([]Part{{VarMap: []int{0}}}, 1, Options{}); err == nil {
		t.Error("nil model should error")
	}
}

// TestDecomposeReusePartAdoptedVerbatim pins the Reuse contract: a part
// carrying a cached solution is adopted without solving — its Values,
// Objective, and Bound merge exactly as a live solve's would, but it
// contributes no node/LP/runtime effort and its OnSolve hook still fires (the
// trace shows a zero-effort replay span).
func TestDecomposeReusePartAdoptedVerbatim(t *testing.T) {
	models := []*Model{
		knapsack([]float64{5, 4, 3}, []float64{2, 3, 1}, 4),
		knapsack([]float64{7, 1}, []float64{1, 1}, 1),
	}
	parts := make([]Part, len(models))
	fullVars := 0
	for i, m := range models {
		parts[i] = Part{Model: m, VarMap: seqVarMap(fullVars, m.NumVars())}
		fullVars += m.NumVars()
	}
	fresh, freshSols, err := SolveParts(parts, fullVars, Options{})
	if err != nil {
		t.Fatalf("fresh SolveParts: %v", err)
	}

	var mu sync.Mutex
	hookSaw := (*Solution)(nil)
	parts[0].Reuse = freshSols[0]
	parts[0].OnSolve = func() func(*Solution) {
		return func(sol *Solution) {
			mu.Lock()
			hookSaw = sol
			mu.Unlock()
		}
	}
	replay, replaySols, err := SolveParts(parts, fullVars, Options{})
	if err != nil {
		t.Fatalf("replay SolveParts: %v", err)
	}
	if replaySols[0] != freshSols[0] {
		t.Error("reused part did not adopt the supplied solution verbatim")
	}
	mu.Lock()
	if hookSaw != freshSols[0] {
		t.Errorf("OnSolve hook saw %+v, want the reused solution", hookSaw)
	}
	mu.Unlock()
	if !reflect.DeepEqual(replay.Values, fresh.Values) {
		t.Errorf("replayed merge values differ from the fresh run:\n%v\n%v", replay.Values, fresh.Values)
	}
	if replay.Objective != fresh.Objective || replay.Bound != fresh.Bound || replay.Status != fresh.Status {
		t.Errorf("replayed merge (obj=%v bound=%v status=%v) != fresh (obj=%v bound=%v status=%v)",
			replay.Objective, replay.Bound, replay.Status, fresh.Objective, fresh.Bound, fresh.Status)
	}
	// Effort telemetry counts only the live part.
	live := replaySols[1]
	if replay.Nodes != live.Nodes || replay.LP != live.LP || replay.Runtime != live.Runtime {
		t.Errorf("replayed merge effort (nodes=%d lp=%+v runtime=%v) should equal the live part's (nodes=%d lp=%+v runtime=%v)",
			replay.Nodes, replay.LP, replay.Runtime, live.Nodes, live.LP, live.Runtime)
	}
	// The live part searches exactly as it did beside its sibling.
	if live.Nodes != freshSols[1].Nodes || live.LP != freshSols[1].LP {
		t.Errorf("live part took %d nodes and %+v, the fresh run %d and %+v",
			live.Nodes, live.LP, freshSols[1].Nodes, freshSols[1].LP)
	}
}

// TestSolveEachSpawnsOnlyForConcurrentSolves: adopted parts and a lone live
// part run where the caller stands — their OnSolve hooks see no goroutine the
// caller did not have — and live parts run on at most GOMAXPROCS workers, the
// caller one of them, however many there are. SolveEach takes parts that
// share no variable space and merges everything but Values.
func TestSolveEachSpawnsOnlyForConcurrentSolves(t *testing.T) {
	atLeastTwoProcs(t)
	procs := runtime.GOMAXPROCS(0)
	models := []*Model{
		knapsack([]float64{5, 4, 3}, []float64{2, 3, 1}, 4),
		knapsack([]float64{7, 1}, []float64{1, 1}, 1),
		knapsack([]float64{2, 9, 4}, []float64{1, 2, 2}, 3),
	}
	var l WorkspaceList
	var opts Options
	base := runtime.NumGoroutine()
	// started reports the most goroutines beyond base that any part's OnSolve
	// saw. A worker's goroutine is done with the WaitGroup before it exits
	// (under -race that takes a while), so the count starts once the last
	// call's have.
	during := func(parts []Part) (started int, merged *Solution, sols []*Solution) {
		for wait := 0; wait < 100 && runtime.NumGoroutine() > base; wait++ {
			time.Sleep(time.Millisecond)
		}
		var mu sync.Mutex
		peak := 0
		for i := range parts {
			parts[i].OnSolve = func() func(*Solution) {
				mu.Lock()
				peak = max(peak, runtime.NumGoroutine())
				mu.Unlock()
				return func(*Solution) {}
			}
		}
		merged, sols, err := l.SolveEach(parts, opts, new(Solution), nil)
		if err != nil {
			t.Fatal(err)
		}
		return peak - base, merged, sols
	}
	parts := make([]Part, len(models))
	for i, m := range models {
		parts[i] = Part{Model: m} // no VarMaps: nothing is scattered
	}
	started, fresh, freshSols := during(parts)
	if started < 1 || started > min(3, procs)-1 {
		t.Errorf("three live parts started %d goroutines on %d procs; want 1 to %d", started, procs, min(3, procs)-1)
	}
	if fresh.Values != nil || fresh.Status != StatusOptimal || fresh.Objective != freshSols[0].Objective+freshSols[1].Objective+freshSols[2].Objective {
		t.Errorf("merged %+v: want optimal, the parts' objectives summed, no Values", fresh)
	}
	parts[0].Reuse, parts[2].Reuse = freshSols[0], freshSols[2]
	started, replay, sols := during(parts)
	if started > 0 {
		t.Errorf("two adopted parts and one live started %d goroutines; nothing should have been started", started)
	}
	if sols[0] != freshSols[0] || sols[2] != freshSols[2] || sols[1].Nodes != freshSols[1].Nodes || sols[1].LP != freshSols[1].LP {
		t.Errorf("adopted parts not returned as given, or the live part's search changed (%d nodes, %d in the full run)", sols[1].Nodes, freshSols[1].Nodes)
	}
	if replay.Objective != fresh.Objective || replay.Nodes != sols[1].Nodes {
		t.Errorf("replayed merge: objective %v (fresh %v), nodes %d (the live part's %d)", replay.Objective, fresh.Objective, replay.Nodes, sols[1].Nodes)
	}
	many := make([]Part, 40)
	for i := range many {
		many[i] = Part{Model: models[i%len(models)]}
	}
	if started, _, _ := during(many); started > procs-1 {
		t.Errorf("40 live parts started %d goroutines on %d procs; want at most %d", started, procs, procs-1)
	}
}
