package milp

import (
	"math"
	"math/rand"
	"testing"
)

// randomBoxLP builds a random all-continuous LP with finite bounds: the shape
// of a branch-and-bound node relaxation. Roughly a third of the instances
// come out infeasible, which the warm path must also classify correctly.
// Half are minimizations and a third of the rows ≥ rows, written as the
// maximization of the negated objective and the ≤ row with both sides negated.
func randomBoxLP(r *rand.Rand) *Model {
	m := &Model{}
	sign := -1.0
	if r.Intn(2) == 0 {
		sign = 1
	}
	nv := 3 + r.Intn(10)
	for j := 0; j < nv; j++ {
		lb := -5 + r.Float64()*5
		ub := lb + r.Float64()*8
		m.AddVar(Continuous, lb, ub, sign*math.Round((r.Float64()*10-5)*4)/4)
	}
	nc := 1 + r.Intn(8)
	for i := 0; i < nc; i++ {
		var terms []Term
		for j := 0; j < nv; j++ {
			if r.Intn(3) == 0 {
				terms = append(terms, Term{Var: VarID(j), Coef: math.Round((r.Float64()*6-3)*2) / 2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(r.Intn(nv)), Coef: 1})
		}
		addRow(m, terms, r.Intn(3), math.Round((r.Float64()*20-10)*2)/2)
	}
	return m
}

// tightenLikeBB narrows one variable's box the way branching does and returns
// whether the box is still non-empty.
func tightenLikeBB(r *rand.Rand, lb, ub []float64, nvars int) bool {
	j := r.Intn(nvars)
	mid := lb[j] + (ub[j]-lb[j])*(0.25+0.5*r.Float64())
	if r.Intn(2) == 0 {
		ub[j] = mid
	} else {
		lb[j] = mid
	}
	return lb[j] <= ub[j]
}

// TestWarmStartMatchesColdProperty is the snapshot/restore property test: on
// ≥200 seeded random LPs, re-solving a tightened box from the parent basis
// must classify the node exactly like a cold solve and, when optimal, reach
// the same objective.
func TestWarmStartMatchesColdProperty(t *testing.T) {
	const seeds = 400
	optimal, warmHits := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		model := randomBoxLP(r)
		if err := model.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := newLP(model)
		parent := newScratch(p)
		st, _, err := parent.solve(p.lb, p.ub, 0)
		if err != nil {
			t.Fatalf("seed %d root: %v", seed, err)
		}
		if st != lpOptimal {
			continue // infeasible root: nothing to snapshot
		}
		snap := parent.snapshot()

		lb := append([]float64(nil), p.lb...)
		ub := append([]float64(nil), p.ub...)
		// Chain a few tightenings from the same snapshot plus re-snapshots,
		// like a dive down one branch-and-bound path.
		warm := snap
		warmSc := newScratch(p)
		for step := 0; step < 4; step++ {
			if !tightenLikeBB(r, lb, ub, len(model.Vars)) {
				break
			}
			coldSt, coldX, err := solveLP(p, lb, ub, 0)
			if err != nil {
				t.Fatalf("seed %d step %d cold: %v", seed, step, err)
			}
			warmSt, warmX, err := warmSc.solveFrom(warm, lb, ub, 0)
			if err != nil {
				t.Fatalf("seed %d step %d warm: %v", seed, step, err)
			}
			if warmSt != coldSt {
				t.Fatalf("seed %d step %d: warm status %v != cold %v", seed, step, warmSt, coldSt)
			}
			if coldSt != lpOptimal {
				break
			}
			optimal++
			co := model.ObjectiveValue(coldX[:len(model.Vars)])
			wo := model.ObjectiveValue(warmX[:len(model.Vars)])
			if diff := math.Abs(co - wo); diff > 1e-6*math.Max(1, math.Abs(co)) {
				t.Fatalf("seed %d step %d: warm objective %.9f != cold %.9f", seed, step, wo, co)
			}
			warm = warmSc.snapshot()
		}
		warmHits += warmSc.stats.WarmHits
	}
	if optimal < 200 {
		t.Fatalf("only %d optimal re-solves exercised; want ≥200 (generator drifted?)", optimal)
	}
	if warmHits == 0 {
		t.Fatal("no warm restart ever succeeded; dual path is dead")
	}
	t.Logf("optimal re-solves=%d warm hits=%d", optimal, warmHits)
}

// TestCorruptSnapshotFallsBackCold corrupts snapshots in every structural way
// restore checks for and requires (a) rejection, (b) a clean cold-path result
// identical to a from-scratch solve — never a wrong optimum.
func TestCorruptSnapshotFallsBackCold(t *testing.T) {
	// Scan seeds for an instance whose root solves optimal with a usable
	// snapshot; the corruption cases below all start from it.
	var (
		model  *Model
		p      *lp
		parent *simplexState
		want   float64
	)
	for seed := int64(0); ; seed++ {
		r := rand.New(rand.NewSource(seed))
		model = randomBoxLP(r)
		p = newLP(model)
		parent = newScratch(p)
		st, x, err := parent.solve(p.lb, p.ub, 0)
		if err != nil {
			t.Fatal(err)
		}
		// m ≥ 2 so the duplicate-column corruption below is not a no-op.
		if st == lpOptimal && p.m >= 2 && parent.snapshot() != nil {
			want = model.ObjectiveValue(x[:len(model.Vars)])
			break
		}
		if seed > 100 {
			t.Fatal("no optimal random instance in 100 seeds")
		}
	}

	corruptions := map[string]func(*basisState){
		"duplicate-basis-column": func(b *basisState) { b.basis[0] = b.basis[len(b.basis)-1] },
		"out-of-range-column":    func(b *basisState) { b.basis[0] = int32(p.n) },
		"negative-column":        func(b *basisState) { b.basis[0] = -1 },
		"truncated-status":       func(b *basisState) { b.status = b.status[:len(b.status)-1] },
		"truncated-basis":        func(b *basisState) { b.basis = b.basis[:len(b.basis)-1] },
		"stray-inbasis-status": func(b *basisState) {
			for j, st := range b.status {
				if st != inBasis {
					b.status[j] = inBasis
					return
				}
			}
		},
		"nonbasic-marked-out": func(b *basisState) { b.status[b.basis[0]] = atLower },
	}
	for name, corrupt := range corruptions {
		snap := parent.snapshot()
		if snap == nil {
			t.Fatal("snapshot unexpectedly nil")
		}
		corrupt(snap)
		sc := newScratch(p)
		st, x, err := sc.solveFrom(snap, p.lb, p.ub, 0)
		if err != nil || st != lpOptimal {
			t.Fatalf("%s: st=%v err=%v", name, st, err)
		}
		if got := model.ObjectiveValue(x[:len(model.Vars)]); math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: objective %.9f != cold %.9f", name, got, want)
		}
		if sc.stats.WarmFallbacks != 1 || sc.stats.WarmHits != 0 {
			t.Errorf("%s: stats %+v; want exactly one fallback, no hits", name, sc.stats)
		}
	}

	// A stale snapshot — valid shape, but a resting bound has since moved to
	// infinity — must be rejected by restore and still classified exactly
	// like a cold solve under the widened box.
	snap := parent.snapshot()
	ub := append([]float64(nil), p.ub...)
	stale := false
	for j, st := range snap.status {
		if st == atUpper {
			ub[j] = math.Inf(1)
			stale = true
		}
	}
	if stale {
		coldSt, coldX, err := solveLP(p, p.lb, ub, 0)
		if err != nil {
			t.Fatal(err)
		}
		sc := newScratch(p)
		warmSt, warmX, err := sc.solveFrom(snap, p.lb, ub, 0)
		if err != nil {
			t.Fatal(err)
		}
		if warmSt != coldSt {
			t.Fatalf("stale-bound snapshot: warm status %v != cold %v", warmSt, coldSt)
		}
		if sc.stats.WarmHits != 0 {
			t.Errorf("stale-bound snapshot restored; want fallback (stats %+v)", sc.stats)
		}
		if coldSt == lpOptimal {
			co := model.ObjectiveValue(coldX[:len(model.Vars)])
			wo := model.ObjectiveValue(warmX[:len(model.Vars)])
			if math.Abs(co-wo) > 1e-6*math.Max(1, math.Abs(co)) {
				t.Errorf("stale-bound snapshot: objective %.9f != cold %.9f", wo, co)
			}
		}
	}

	// Nil snapshot is not a fallback, just a cold node (the root, or a parent
	// whose basis could not seed a restart).
	sc2 := newScratch(p)
	if _, _, err := sc2.solveFrom(nil, p.lb, p.ub, 0); err != nil {
		t.Fatal(err)
	}
	if sc2.stats.WarmFallbacks != 0 || sc2.stats.ColdStarts != 1 {
		t.Errorf("nil snapshot stats %+v; want pure cold start", sc2.stats)
	}
}

// TestSnapshotsAccountedInEveryDriver runs the search to every kind of end —
// exhausted, gap met, node limit with the heap still full, warm starts off —
// and audits the snapshot free list and reference counts each time.
func TestSnapshotsAccountedInEveryDriver(t *testing.T) {
	small := []*Model{packingModel(5, 30), randMILP(4)}
	all := append([]*Model{residentModel(1)}, small...)
	ends := []struct {
		set    func(*Options)
		models []*Model
	}{
		{func(*Options) {}, small}, // the resident block takes minutes to exhaust
		{func(o *Options) { o.Gap = 0.1 }, all},
		{func(o *Options) { o.Gap = 0.001; o.MaxNodes = 60 }, all},
		{func(o *Options) { o.MaxNodes = 40; o.DisableWarmStart = true }, all},
	}
	open := 0
	for ei, end := range ends {
		var opts Options
		end.set(&opts)
		for _, m := range end.models {
			w := new(Workspace)
			sol, err := w.solve(m, opts, new(Solution))
			if err != nil {
				t.Fatalf("end %d: %v", ei, err)
			}
			checkSnapshotBooks(t, w)
			open += len(w.open.nodes)
			made := w.snaps.Used()
			if opts.DisableWarmStart && made != 0 {
				t.Errorf("end %d: %d snapshots cut with warm starts disabled", ei, made)
			}
			if made > sol.Nodes {
				t.Errorf("end %d: %d snapshots cut for %d nodes", ei, made, sol.Nodes)
			}
		}
	}
	if open == 0 {
		t.Fatal("no solve ended with open nodes; the held side of the books was never checked")
	}
}

// TestSnapshotsRecycled: a snapshot buffer is needed per open frontier node,
// not per node solved, and a warm workspace cuts them from its slabs.
func TestSnapshotsRecycled(t *testing.T) {
	m := residentModel(2)
	w := new(Workspace)
	sol, err := w.solve(m, Options{Gap: 0.1}, new(Solution))
	if err != nil || sol.Nodes < 100 {
		t.Fatalf("%v %+v", err, sol)
	}
	made := w.snaps.Used()
	if made == 0 || made > sol.Nodes/2 {
		t.Errorf("%d snapshot buffers cut for %d nodes; the free list is not recycling", made, sol.Nodes)
	}
	t.Logf("%d nodes, %d LP warm starts, %d snapshot buffers", sol.Nodes, sol.LP.WarmHits, made)
	w.rewind()
	if len(w.snapFree) != 0 || len(w.open.nodes) != 0 {
		t.Fatal("the free list or the heap survived the rewind")
	}
}

// TestNoStaleSnapshotAcrossSolves: snapshots are cut for one LP's shape and
// die with the solve. A second solve on the same workspace, of a model with
// other dimensions, must never restore from a buffer of the first — it would
// show as rejected warm starts (WarmFallbacks) that a solve on fresh memory
// does not have, or as a different tree.
func TestNoStaleSnapshotAcrossSolves(t *testing.T) {
	opts := Options{Gap: 0.05}
	var ws Workspace
	for _, m := range []*Model{residentModel(2), packingModel(7, 24), residentModel(0), packingModel(8, 40), residentModel(1)} {
		want, err := Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.Solve(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws.snapFree) != 0 {
			t.Fatal("snapshots outlived their solve")
		}
		if got.LP != want.LP || got.Nodes != want.Nodes || got.Objective != want.Objective {
			t.Errorf("on a used workspace LP %+v nodes %d, on fresh memory LP %+v nodes %d",
				got.LP, got.Nodes, want.LP, want.Nodes)
		}
	}
}
