package milp

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tetrisched/internal/slab"
)

// packingModel builds a scheduler-shaped MILP: jobs that each pick at most
// one of a few placement options, options that occupy capacity over a run of
// slices, supply rows that make them compete. Rows are in the lean form the
// compiler emits: a job's choice is Σ options ≤ 1, with no job indicator.
// Small enough to solve in milliseconds, oversubscribed enough to need a
// tree.
func packingModel(seed int64, jobs int) *Model {
	r := rand.New(rand.NewSource(seed))
	m := &Model{}
	const slices = 6
	supply := make([][]Term, slices)
	for j := 0; j < jobs; j++ {
		var kids []Term
		for o := 0; o < 2+r.Intn(3); o++ {
			ind := m.AddVar(Binary, 0, 1, float64(1+r.Intn(20)))
			kids = append(kids, Term{ind, 1})
			k := float64(1 + r.Intn(5))
			start := r.Intn(slices)
			for t := start; t < slices && t < start+1+r.Intn(3); t++ {
				supply[t] = append(supply[t], Term{ind, k})
			}
		}
		m.AddConstraint(kids, LE, 1)
	}
	for _, terms := range supply {
		if len(terms) > 0 {
			m.AddConstraint(terms, LE, float64(4+jobs/2))
		}
	}
	return m
}

// TestAddConstraintMatchesMapMerge checks the stamp-array merge against the
// map-based merge it replaced, kept here as the reference: same
// first-occurrence order, same summed coefficients, across chunk boundaries.
func TestAddConstraintMatchesMapMerge(t *testing.T) {
	reference := func(terms []Term) []Term {
		seen := make(map[VarID]int, len(terms))
		out := make([]Term, 0, len(terms))
		for _, t := range terms {
			if i, ok := seen[t.Var]; ok {
				out[i].Coef += t.Coef
				continue
			}
			seen[t.Var] = len(out)
			out = append(out, t)
		}
		return out
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := &Model{}
		var want [][]Term
		for row := 0; row < 40; row++ {
			for v := 0; v < r.Intn(4); v++ { // variables keep arriving between rows
				m.AddVar(Continuous, 0, 1, 0)
			}
			if m.NumVars() == 0 {
				m.AddVar(Continuous, 0, 1, 0)
			}
			terms := make([]Term, r.Intn(30))
			for i := range terms {
				terms[i] = Term{VarID(r.Intn(m.NumVars())), float64(r.Intn(9) - 4)}
			}
			want = append(want, reference(terms))
			m.AddConstraint(terms, LE, 1)
		}
		for row, w := range want {
			got := m.Cons[row].Terms
			if len(got) == 0 && len(w) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("seed %d row %d: merged to %v, the map merge gives %v", seed, row, got, w)
			}
			if cap(got) != len(got) {
				t.Fatalf("seed %d row %d: row has spare capacity %d: an append would overwrite the next row", seed, row, cap(got)-len(got))
			}
		}
	}
}

// TestAddConstraintBadVarID pins AddConstraint's contract under the dense
// stamp array: a term naming no variable of the model is not an index panic
// but a model that Validate (and so Solve) rejects with "bad var id".
func TestAddConstraintBadVarID(t *testing.T) {
	for _, bad := range []VarID{-1, -1 << 40, 2, 3, 1 << 40} {
		m := &Model{}
		x := m.AddVar(Binary, 0, 1, 1)
		y := m.AddVar(Binary, 0, 1, 1)
		m.AddConstraint([]Term{{x, 1}, {bad, 1}, {y, 1}, {bad, 2}, {x, 1}}, LE, 1)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), "bad var id") {
			t.Fatalf("var id %d: Validate() = %v, want a bad var id error", bad, err)
		}
		if _, err := Solve(m, Options{}); err == nil || !strings.Contains(err.Error(), "bad var id") {
			t.Fatalf("var id %d: Solve() error = %v, want a bad var id error", bad, err)
		}
	}
}

// TestSolveValidatesOnce pins that validation happens at Solve's door and
// not again in the search: branchAndBound, which is what Solve hands the
// model to, takes a model Validate rejects (crossed bounds) without
// complaint, where Solve answers with Validate's error.
func TestSolveValidatesOnce(t *testing.T) {
	m := &Model{}
	m.AddVar(Continuous, 2, 1, 1)
	if _, err := Solve(m, Options{}); err == nil {
		t.Fatal("Solve accepted a model with lb > ub")
	}
	if _, err := new(Workspace).branchAndBound(m, Options{}); err != nil {
		t.Fatalf("branchAndBound validated its input: %v", err)
	}
}

// TestModelLayout pins the size of a model's elements: a variable is four
// words with no pointer in it, so the collector never scans a model's
// variables, and a row is its term slice and two words. Every sub-model and
// reduced model copies them, so a field added here is paid for many times.
func TestModelLayout(t *testing.T) {
	if size := unsafe.Sizeof(Variable{}); size > 32 {
		t.Errorf("Variable is %d B, want at most 32", size)
	}
	if typ := reflect.TypeOf(Variable{}); hasPointers(typ) {
		t.Errorf("Variable holds a pointer: %v", typ)
	}
	if size := unsafe.Sizeof(Constraint{}); size > 40 {
		t.Errorf("Constraint is %d B, want at most 40", size)
	}
}

// hasPointers reports whether a value of type t holds a pointer the collector
// must follow.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestModelReset checks what the compiler builds on: a Reset model builds
// the next model correctly on the old storage, whatever the sizes of the two,
// every row equal to a fresh build's and capacity-limited to itself, and once
// it has grown to fit the largest it allocates nothing to rebuild that one or
// any smaller: the term arena keeps its chunks.
func TestModelReset(t *testing.T) {
	stage := new(Model)
	build := func(src *Model) {
		stage.Reset()
		for _, v := range src.Vars {
			stage.AddVar(v.Type, v.Lb, v.Ub, v.Obj)
		}
		for _, c := range src.Cons {
			stage.AddConstraint(c.Terms, c.Op, c.RHS)
		}
	}
	check := func(src *Model) {
		t.Helper()
		if stage.String() != src.String() {
			t.Fatalf("%d rows: the model rebuilt on reused storage differs from the model", len(src.Cons))
		}
		for i, c := range stage.Cons {
			if !slices.Equal(c.Terms, src.Cons[i].Terms) || cap(c.Terms) != len(c.Terms) {
				t.Fatalf("%d rows: row %d is %v (cap %d), a fresh build gives %v", len(src.Cons), i, c.Terms, cap(c.Terms), src.Cons[i].Terms)
			}
		}
	}
	for _, size := range []int{9, 18, 6, 15, 18} {
		src := packingModel(int64(size), size)
		build(src)
		check(src)
	}
	big, small := packingModel(40, 40), packingModel(7, 7)
	build(big)
	check(big)
	if len(stage.chunks) < 4 {
		t.Fatalf("the largest model fits in %d chunks; the test needs it past three chunk boundaries", len(stage.chunks))
	}
	// The first rebuild after growing is free too: nothing is consolidated.
	// (AllocsPerRun would not see this, as its warm-up run is not counted.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build(big)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the first rebuild of the model the storage grew to allocates %d times", n)
	}
	check(big)
	for _, src := range []*Model{big, small, big} {
		if avg := testing.AllocsPerRun(10, func() { build(src) }); avg != 0 {
			t.Errorf("rebuilding a %d-row model the chunks already fit allocates %v times", len(src.Cons), avg)
		}
		check(src)
	}
}

// TestWorkspaceSolveMatchesFresh solves a run of different models on one
// workspace, under several option sets, and requires each result to equal a
// solve on fresh memory: the workspace changes where buffers live, nothing
// else.
func TestWorkspaceSolveMatchesFresh(t *testing.T) {
	for _, opts := range []Options{
		{},
		{Gap: 0.1, DisableWarmStart: true},
	} {
		var ws Workspace
		for seed := int64(1); seed <= 8; seed++ {
			m := packingModel(seed, 4+int(seed*7)%23)
			want, err := Solve(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.Solve(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			want.Runtime, got.Runtime = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v seed %d: workspace solve\n%+v\nfresh solve\n%+v", opts, seed, got, want)
			}
		}
	}
}

// TestWorkspaceAliasing solves A, then B on the same workspace, and requires
// everything A's caller holds — the solution's values and bound — to be
// untouched: no result may alias a slab.
// The resident pair branches: A's incumbent is found deep in a tree whose
// nodes, snapshots and heap are all rewound and overwritten by B's.
func TestWorkspaceAliasing(t *testing.T) {
	for _, pair := range []struct {
		a, b *Model
		gap  float64
	}{
		{packingModel(1, 14), packingModel(2, 25), 0},
		{residentModel(2), residentModel(1), 0.1},
	} {
		opts := Options{Gap: pair.gap}
		var ws Workspace
		a, b := pair.a, pair.b
		solA, err := ws.Solve(a, opts)
		if err != nil || solA.Values == nil {
			t.Fatalf("solve A: %v %+v", err, solA)
		}
		if a.NumVars() > 100 && solA.Nodes < 100 {
			t.Fatalf("the resident block solved in %d nodes; the case is meant to branch", solA.Nodes)
		}
		keep := *solA
		keep.Values = append([]float64(nil), solA.Values...)
		for i := 0; i < 3; i++ { // B several times: the slabs are warm and in use
			if _, err := ws.Solve(b, opts); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(*solA, keep) {
			t.Fatalf("gap %v: solving B on the workspace changed A's solution", pair.gap)
		}
		if !a.IsFeasible(solA.Values, 1e-6) {
			t.Fatalf("gap %v: A's values are no longer a feasible point of A", pair.gap)
		}
	}
}

// TestWorkspaceSolveAllocs budgets a warm-workspace solve. A root-integral
// model (the paper's traffic almost never branches) may allocate only what
// the caller keeps: the Solution and its Values. The LP and the search's
// answer are the workspace's. The model's size must not show: on fresh
// memory the same solve makes about 90 allocations.
func TestWorkspaceSolveAllocs(t *testing.T) {
	m := &Model{}
	var supply []Term
	for j := 0; j < 40; j++ {
		job := m.AddVar(Binary, 0, 1, 0)
		var kids []Term
		for o := 0; o < 4; o++ {
			ind := m.AddVar(Binary, 0, 1, float64(10+j-o))
			kids = append(kids, Term{ind, 1})
			supply = append(supply, Term{ind, 1})
		}
		m.AddConstraint(append(kids, Term{job, -1}), LE, 0)
	}
	m.AddConstraint(supply, LE, 25)
	opts := Options{Gap: 0.1}
	var ws Workspace
	for i := 0; i < 3; i++ { // grow to fit, then settle
		if sol, err := ws.Solve(m, opts); err != nil || sol.Status != StatusOptimal {
			t.Fatalf("warm-up solve: %v %+v", err, sol)
		}
	}
	const budget = 2
	warm := testing.AllocsPerRun(50, func() { ws.Solve(m, opts) })
	if warm > budget {
		t.Errorf("a warm-workspace solve allocates %v times, budget %d", warm, budget)
	}
	fresh := testing.AllocsPerRun(50, func() { Solve(m, opts) })
	t.Logf("allocations per solve: %v on a warm workspace, %v on fresh memory", warm, fresh)
}

// TestWorkspaceListSolveParts runs decomposed solves concurrently against one
// shared free list (run it under -race) and requires each to merge to what
// the package-level SolveParts returns. Each call's workers hold a workspace
// apiece, so the list ends with no more than the four calls' workers.
func TestWorkspaceListSolveParts(t *testing.T) {
	atLeastTwoProcs(t)
	mkParts := func(seed int64) ([]Part, int) {
		var parts []Part
		full := 0
		for i := int64(0); i < 5; i++ {
			m := packingModel(seed*10+i, 5+int(i)*4)
			vm := make([]int, m.NumVars())
			for v := range vm {
				vm[v] = full + v
			}
			full += m.NumVars()
			parts = append(parts, Part{Model: m, VarMap: vm})
		}
		return parts, full
	}
	var opts Options
	var list WorkspaceList
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				parts, full := mkParts(g)
				want, _, err := SolveParts(parts, full, opts)
				if err != nil {
					t.Error(err)
					return
				}
				got, _, err := list.SolveParts(parts, full, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Status != want.Status || got.Objective != want.Objective || !reflect.DeepEqual(got.Values, want.Values) {
					t.Errorf("goroutine %d round %d: shared-list solve differs from the fresh one", g, round)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(list.free); n == 0 || n > 4*runtime.GOMAXPROCS(0) {
		t.Errorf("free list holds %d workspaces after the solves of four calls on %d procs", n, runtime.GOMAXPROCS(0))
	}
}

// TestSolveEachCallerValues: several live parts solve at once, each writing its
// Solution into the one its Part lent as Out (run it under -race). The lent
// Solution is the result's header, and Values with room is the Values' memory;
// Values too small or absent are replaced by a fresh allocation, and a part
// with no Out gets a fresh Solution. The results are those of a solve on fresh
// memory either way, and memory comes back for the next round only with the
// solution it held dropped. A Reuse part's Out is left as it was.
func TestSolveEachCallerValues(t *testing.T) {
	models := []*Model{packingModel(1, 14), packingModel(2, 25), residentModel(0), packingModel(3, 18), packingModel(4, 30)}
	same := func(got, want *Solution) bool {
		return got != nil && reflect.DeepEqual(got.Values, want.Values) && got.Objective == want.Objective &&
			got.Bound == want.Bound && got.Status == want.Status && got.Nodes == want.Nodes
	}
	opts := Options{Gap: 0.1}
	want := make([]*Solution, len(models))
	for i, m := range models {
		sol, err := Solve(m, opts)
		if err != nil || sol.Values == nil {
			t.Fatalf("model %d: %v %+v", i, err, sol)
		}
		want[i] = sol
	}
	var list WorkspaceList
	outs := make([]*Solution, len(models))
	for round := 0; round < 5; round++ {
		parts := make([]Part, len(models))
		lent := make([][]float64, len(models))
		for i, m := range models {
			parts[i] = Part{Model: m, Out: outs[i]}
			if outs[i] != nil {
				lent[i] = outs[i].Values
			}
		}
		_, sols, err := list.SolveEach(parts, opts, new(Solution), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, sol := range sols {
			if !same(sol, want[i]) {
				t.Fatalf("opts %+v round %d part %d: %+v differs from a solve on fresh memory %+v", opts, round, i, sol, want[i])
			}
			if outs[i] != nil && sol != outs[i] {
				t.Errorf("opts %+v round %d part %d: the Solution is not the one lent", opts, round, i)
			}
			if fits := cap(lent[i]) >= len(sol.Values); fits != (cap(lent[i]) > 0 && &sol.Values[0] == &lent[i][:1][0]) {
				t.Errorf("opts %+v round %d part %d: lent %d floats for %d values, in the lent memory: %v", opts, round, i, cap(lent[i]), len(sol.Values), !fits)
			}
			switch (round + i) % 4 {
			case 0:
				outs[i] = sol // the usual case: the same memory next round
			case 1:
				outs[i] = &Solution{Values: make([]float64, len(sol.Values)/2)} // too small
			case 2:
				outs[i] = new(Solution)
			default:
				outs[i] = nil
			}
		}
	}
	// A Reuse part is adopted as given and its Out is not written.
	out := &Solution{Values: []float64{7}}
	parts := []Part{{Model: models[0], Reuse: want[0], Out: out}, {Model: models[1]}}
	_, sols, err := list.SolveEach(parts, opts, new(Solution), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sols[0] != want[0] || !reflect.DeepEqual(*out, Solution{Values: []float64{7}}) || !same(sols[1], want[1]) {
		t.Errorf("opts %+v: a Reuse part's Out was written, or the parts' results changed", opts)
	}
}

// TestSolveEachAllocs budgets a SolveEach on a list whose workspaces have grown
// to fit, every part writing into the Solution it lent and the merge into the
// caller's: what is left is solveEach's bookkeeping (the fan-out and, beside
// the caller, its workers) and the incumbents the search adopts, not the
// solve chain's headers. Before PR 25 the one part made 22 allocations and the
// five 72; they make 9 and 27 since the fan-out's shared state is one object
// (11 and 29 before), and the five read up to 44 under -race, where the
// concurrent parts' counts vary.
func TestSolveEachAllocs(t *testing.T) {
	for _, tc := range []struct {
		models []*Model
		budget float64
	}{
		{[]*Model{residentModel(0)}, 14},
		{[]*Model{packingModel(1, 14), packingModel(2, 25), residentModel(0), packingModel(3, 18), packingModel(4, 30)}, 48},
	} {
		opts := Options{Gap: 0.1}
		var list WorkspaceList
		outs := make([]Solution, len(tc.models))
		parts := make([]Part, len(tc.models))
		var merged Solution
		solve := func() {
			for i, m := range tc.models {
				parts[i] = Part{Model: m, Out: &outs[i]}
			}
			if _, _, err := list.SolveEach(parts, opts, &merged, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ { // every workspace grows to fit every model, whichever it is handed
			solve()
		}
		// The fewest of three readings: on a loaded machine under -race the
		// concurrent parts' counts have read 51 once in a while.
		got := testing.AllocsPerRun(20, solve)
		for i := 0; i < 2 && got > tc.budget; i++ {
			got = min(got, testing.AllocsPerRun(20, solve))
		}
		if got > tc.budget {
			t.Errorf("%d parts: a SolveEach on grown workspaces allocates %v times, budget %v", len(tc.models), got, tc.budget)
		}
		t.Logf("%d parts: %v allocations per SolveEach", len(tc.models), got)
	}
}

// TestSolveEachAllocsIndependentOfParts: on a warm list, a SolveEach of 40
// live parts, each lending its Out and the call its sols, allocates exactly as
// often as one of 4 — the fan-out costs the same however many parts its
// workers take — and afterwards the list holds no more workspaces than there
// can be workers. The knapsacks have unit weights, so each is settled at an
// integral root and its solve allocates nothing on a warm workspace: what is
// counted is the fan-out's alone. The list starts with a warm workspace for
// every worker there can be: it grows only when more are out at once than
// ever before, and how many overlap depends on when the OS runs the workers.
func TestSolveEachAllocsIndependentOfParts(t *testing.T) {
	atLeastTwoProcs(t)
	var list WorkspaceList
	for range runtime.GOMAXPROCS(0) {
		w := new(Workspace)
		for range 2 { // a new workspace sizes its slabs at its first rewind
			if _, err := w.Solve(knapsack([]float64{5, 4, 3, 1}, []float64{1, 1, 1, 1}, 2), Options{}); err != nil {
				t.Fatal(err)
			}
		}
		list.Put(w)
	}
	allocs := func(n int) float64 {
		models, parts := make([]*Model, n), make([]Part, n)
		outs, sols := make([]Solution, n), make([]*Solution, n)
		for i := range models {
			models[i] = knapsack([]float64{5, 4, 3, float64(i%4) + 0.5}, []float64{1, 1, 1, 1}, 2)
		}
		var merged Solution
		solve := func() {
			for i := range parts {
				parts[i] = Part{Model: models[i], Out: &outs[i]}
			}
			if got, _, err := list.SolveEach(parts, Options{}, &merged, sols); err != nil || got.Status != StatusOptimal {
				t.Fatalf("%d parts: %v %+v", n, err, got)
			}
		}
		for range 50 {
			solve()
		}
		// testing.AllocsPerRun would pin GOMAXPROCS to 1, and so the call to
		// one worker.
		const runs = 20
		return float64(fanOutAllocs(runs, solve)) / runs
	}
	four, forty := allocs(4), allocs(40)
	t.Logf("allocations per SolveEach: %v for 4 live parts, %v for 40", four, forty)
	if four != forty {
		t.Errorf("a warm SolveEach allocates %v times for 4 live parts and %v for 40", four, forty)
	}
	if n := len(list.free); n > runtime.GOMAXPROCS(0) {
		t.Errorf("the list holds %d workspaces after one call at a time on %d procs", n, runtime.GOMAXPROCS(0))
	}
}

// fanOutAllocs returns how many objects calls of f allocate inside a
// WorkspaceList method, on the calling goroutine or a worker, read from the
// memory profile at a rate of one: the objects whose innermost frame outside
// the runtime is this package's. What the runtime allocates for itself — a
// goroutine record when its free list is empty, a waiter's record when a
// worker parks on a lock or the WaitGroup, a thread — has no such frame, and
// depends on how the OS schedules the process, which the load of other
// processes changes.
func fanOutAllocs(calls int, f func()) int64 {
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = prev }()
	var recs []runtime.MemProfileRecord
	count := func() (total int64) {
		runtime.GC() // a profile is as of the last completed cycle but one
		runtime.GC()
		n, ok := runtime.MemProfile(recs, true)
		for !ok {
			recs = make([]runtime.MemProfileRecord, n+n/2)
			n, ok = runtime.MemProfile(recs, true)
		}
		for _, r := range recs[:n] {
			if fanOutFrame(r.Stack()) {
				total += r.AllocObjects
			}
		}
		return total
	}
	before := count()
	for range calls {
		f()
	}
	return count() - before
}

// fanOutFrame reports whether an allocation's stack is the package's own,
// made in a WorkspaceList method (see fanOutAllocs).
func fanOutFrame(stack []uintptr) bool {
	const pkg = "tetrisched/internal/milp."
	frames := runtime.CallersFrames(stack)
	for own := false; ; {
		f, more := frames.Next()
		switch {
		case !own && (strings.HasPrefix(f.Function, "runtime.") || strings.HasPrefix(f.Function, "internal/runtime/")):
		case !own && !strings.HasPrefix(f.Function, pkg):
			return false
		case strings.HasPrefix(f.Function, pkg+"(*WorkspaceList)."):
			return true
		default:
			own = true
		}
		if !more {
			return false
		}
	}
}

// TestSlabSizing: a slab that has never been rewound may be a throwaway
// Workspace's, so it cuts every request exact; its first rewind keeps one
// chunk of what was held; a request no chunk has room for adds a chunk, and
// the old ones stay; a rewind wipes what each chunk handed out and every chunk
// serves again.
func TestSlabSizing(t *testing.T) {
	var s slab.Slab[int]
	a, b := s.Take(5), s.Take(7)
	if cap(a) != 5 || cap(b) != 7 || s.Used() != 12 {
		t.Fatalf("a new slab cut %d and %d for 5 and 7 and counts %d", cap(a), cap(b), s.Used())
	}
	s.Rewind()
	if n := testing.AllocsPerRun(10, func() { s.Take(5); s.Take(7); s.Rewind() }); n != 0 {
		t.Fatalf("the first rewind kept no chunk for the 12 held: 5 and 7 again allocate %v times", n)
	}
	a, b = s.Take(12), s.Take(3) // the first chunk is full: b starts the second
	a[0], b[0] = 1, 2
	if s.Used() != 15 {
		t.Fatalf("a slab that handed out 12 and 3 counts %d", s.Used())
	}
	s.Rewind()
	if a[0] != 0 || b[0] != 0 || s.Used() != 0 {
		t.Fatalf("the rewind left %d and %d in the two chunks and counts %d", a[0], b[0], s.Used())
	}
	if c, d := s.Take(12), s.Take(24); &c[0] != &a[0] || &d[0] != &b[0] {
		t.Error("the rewound chunks were not served again, first fit: the second must hold twice the first")
	}
	s.Rewind()
	if n := testing.AllocsPerRun(10, func() { s.Take(20); s.Take(12); s.Take(4); s.Rewind() }); n != 0 {
		t.Errorf("36 elements in chunks of 12 and 24 allocate %v times", n)
	}
}
