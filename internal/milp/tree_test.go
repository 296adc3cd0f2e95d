package milp

import (
	"math"
	"math/rand"
	"testing"
)

// residentModel is the MILP the compiler lowers one block of the resident
// churn workload to (bench_test.go's benchResidentChurn, and
// resident_churn1/50 of the scoreboard): nine data-local jobs of mixed widths
// on an 8-node block that is busy for one more slice, each with a start option
// per remaining slice of a 10-slice horizon and a 3-slice duration, 108
// node-slices of demand against 72 of supply; plus arrivals one-slice jobs of
// width 2 that can only start at once. Variable, row and term order are the
// compiler's, and so is the lean form: a job's choice row is Σ options ≤ 1
// with no job indicator, and a job with one option has none. Without the
// compiler's rounding its incumbents come only from rounding the root and from
// integral nodes, so at the scheduler's gap of 0.1 it takes 396 nodes with no
// arrival and 1 129 with two.
func residentModel(arrivals int) *Model {
	const horizon, dur = 10, 3
	widths := []float64{2, 3, 5, 7, 2, 3, 5, 7, 2}
	m := &Model{}
	supply := make([][]Term, horizon)
	job := func(width float64, options, dur int, value float64) {
		// Starting now is culled (the block is still busy): options run from
		// slice 1.
		var choose []Term
		for s := 1; s <= options; s++ {
			opt := m.AddVar(Binary, 0, 1, value-float64(s))
			choose = append(choose, Term{opt, 1})
			for t := s; t < s+dur && t < horizon; t++ {
				supply[t] = append(supply[t], Term{opt, width})
			}
		}
		if options > 1 {
			m.AddConstraint(choose, LE, 1)
		}
	}
	for _, w := range widths {
		job(w, horizon-1, dur, 997)
	}
	for a := 0; a < arrivals; a++ {
		job(2, 1, 1, 999)
	}
	for t := 1; t < horizon; t++ {
		m.AddConstraint(supply[t], LE, 8)
	}
	return m
}

// TestResidentModelShape pins the fixture to the component it stands for:
// the tests and benchmarks built on it assume a real tree.
func TestResidentModelShape(t *testing.T) {
	for _, tc := range []struct{ arrivals, vars, rows, nodes int }{
		{0, 81, 18, 396},
		{2, 83, 18, 1129},
	} {
		m := residentModel(tc.arrivals)
		sol, err := Solve(m, Options{Gap: 0.1})
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("%d arrivals: %v %+v", tc.arrivals, err, sol)
		}
		if m.NumVars() != tc.vars || m.NumConstraints() != tc.rows || sol.Nodes != tc.nodes {
			t.Errorf("%d arrivals: %d vars, %d rows, %d nodes; the compiled component has %+v",
				tc.arrivals, m.NumVars(), m.NumConstraints(), sol.Nodes, tc)
		}
	}
}

// TestNodeBoxMatchesOverrideList is the property the parent-pointer nodes
// rest on: the box rebuilt by walking a node's ancestors equals the box the
// old representation built, a copied list of every tightening on the path
// applied root first — on random trees, with columns branched on repeatedly
// and in both directions, and tightenings that do not tighten.
func TestNodeBoxMatchesOverrideList(t *testing.T) {
	type override struct {
		col   int
		isUB  bool
		value float64
	}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		p := &lp{lb: make([]float64, n), ub: make([]float64, n)}
		for j := range p.lb {
			p.lb[j] = float64(r.Intn(3))
			p.ub[j] = p.lb[j] + float64(r.Intn(8))
			if r.Intn(6) == 0 {
				p.ub[j] = math.Inf(1)
			}
		}
		s := &search{ws: new(Workspace), p: p}
		nodes := []*bbNode{{pcol: -1}}
		paths := [][]override{nil}
		for len(nodes) < 2+r.Intn(120) {
			pi := r.Intn(len(nodes))
			if r.Intn(3) > 0 {
				pi = len(nodes) - 1 - r.Intn(min(4, len(nodes))) // favour deep chains
			}
			col, v := r.Intn(n), float64(r.Intn(10))+r.Float64()
			for _, up := range []bool{false, true} {
				child := s.ws.newNode()
				*child = bbNode{parent: nodes[pi], pcol: col, pup: up, bval: math.Floor(v)}
				if up {
					child.bval = math.Ceil(v)
				}
				nodes = append(nodes, child)
				paths = append(paths, append(append([]override(nil), paths[pi]...), override{col, !up, child.bval}))
			}
		}
		lb, ub := make([]float64, n), make([]float64, n)
		wantLB, wantUB := make([]float64, n), make([]float64, n)
		for i, node := range nodes {
			copy(wantLB, p.lb)
			copy(wantUB, p.ub)
			for _, o := range paths[i] {
				if o.isUB {
					wantUB[o.col] = math.Min(wantUB[o.col], o.value)
				} else {
					wantLB[o.col] = math.Max(wantLB[o.col], o.value)
				}
			}
			s.box(node, lb, ub)
			for j := range lb {
				if math.Float64bits(lb[j]) != math.Float64bits(wantLB[j]) || math.Float64bits(ub[j]) != math.Float64bits(wantUB[j]) {
					t.Fatalf("seed %d node %d (depth %d) column %d: box [%v, %v] from the parent chain, [%v, %v] from the override list",
						seed, i, len(paths[i]), j, lb[j], ub[j], wantLB[j], wantUB[j])
				}
			}
		}
	}
}

// TestTreeSearchAllocsIndependentOfNodes budgets a tree search on a warm
// workspace: nodes, snapshots and the heap run on memory the workspace kept,
// so a solve that explores twice the nodes allocates about what the shorter
// one does — what is left is what a caller may keep (incumbent candidates,
// one per integral node) and the per-solve fixed cost. Before the node arena a node alone cost three allocations.
func TestTreeSearchAllocsIndependentOfNodes(t *testing.T) {
	m := residentModel(1)
	opts := func(maxNodes int) Options { return Options{Gap: 0.001, MaxNodes: maxNodes} }
	var ws Workspace
	for i := 0; i < 3; i++ { // grow to fit the longer search, then settle
		sol, err := ws.Solve(m, opts(800))
		if err != nil || sol.Nodes < 800 {
			t.Fatalf("warm-up solve: %v %+v; want a tree of 800 nodes", err, sol)
		}
	}
	short := testing.AllocsPerRun(10, func() { ws.Solve(m, opts(400)) })
	long := testing.AllocsPerRun(10, func() { ws.Solve(m, opts(800)) })
	t.Logf("allocations per solve: %v at 400 nodes, %v at 800", short, long)
	const budget = 40
	if long > budget {
		t.Errorf("an 800-node solve on a warm workspace allocates %v times, budget %d", long, budget)
	}
	if long > short+4 {
		t.Errorf("allocations grow with the tree: %v at 400 nodes, %v at 800", short, long)
	}
}

// solveAccounted is Solve with the snapshot books checked before the
// workspace is dropped.
func solveAccounted(t testing.TB, m *Model, opts Options) (*Solution, error) {
	t.Helper()
	w := new(Workspace)
	sol, err := w.solve(m, opts, new(Solution))
	checkSnapshotBooks(t, w)
	return sol, err
}

// checkSnapshotBooks audits the workspace of a solve that has returned and not
// yet been rewound: every snapshot cut during the solve is either on the free
// list with no reference, or held by exactly the open nodes its count says;
// nothing is in both places or twice in one, and no two snapshots share an
// array.
func checkSnapshotBooks(t testing.TB, w *Workspace) {
	t.Helper()
	held := make(map[*basisState]int32)
	for _, n := range w.open.nodes {
		if n.warm != nil {
			held[n.warm]++
		}
	}
	for bs, refs := range held {
		if bs.refs != refs {
			t.Errorf("a snapshot counts %d references, %d open nodes hold it", bs.refs, refs)
		}
	}
	free := make(map[*basisState]bool)
	for _, bs := range w.snapFree {
		if bs.refs != 0 {
			t.Errorf("a snapshot on the free list counts %d references", bs.refs)
		}
		if held[bs] > 0 {
			t.Error("a snapshot is on the free list and held by an open node: it would be handed out twice")
		}
		if free[bs] {
			t.Error("a snapshot is on the free list twice")
		}
		free[bs] = true
	}
	if made := w.snaps.used; len(free)+len(held) != made {
		t.Errorf("%d snapshots cut, %d free + %d held by open nodes: %d lost", made, len(free), len(held), made-len(free)-len(held))
	}
	arrays := make(map[*int32]bool)
	for _, set := range []map[*basisState]bool{free, keys(held)} {
		for bs := range set {
			if len(bs.basis) == 0 {
				continue
			}
			if arrays[&bs.basis[0]] {
				t.Error("two snapshots share a basis array")
			}
			arrays[&bs.basis[0]] = true
		}
	}
}

func keys(m map[*basisState]int32) map[*basisState]bool {
	out := make(map[*basisState]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// TestFirstPopGapBreakAllocatesNothing: the scoreboard's solves have a
// fractional root whose bound already meets the gap against the root
// rounding's incumbent, so the tree is opened and the search ends at its first
// pop. On a warm workspace that — root node, pseudocost table, the one-worker
// round's slot and bound boxes — allocates nothing: the slot lives in the
// search, where the many-worker goroutines cannot make it escape.
func TestFirstPopGapBreakAllocatesNothing(t *testing.T) {
	m := residentModel(1)
	opts := Options{Gap: 0.5}
	var ws Workspace
	for i := 0; i < 2; i++ { // the first rewind gives the slabs their arrays
		if sol, err := ws.Solve(m, opts); err != nil || sol.Nodes != 1 {
			t.Fatalf("warm-up solve: %v %+v; want the search to end at its first pop", err, sol)
		}
	}
	s, x, rootObj := rootSearch(t, &ws, m, opts)
	if s.consider(roundHeuristic(m, x, ws.floats.take(len(m.Vars)))); firstFractional(m, x) < 0 || !s.gapMet(rootObj) {
		t.Fatal("the root is integral or its rounding misses the gap; the search would not end at its first pop")
	}
	firstPop := func() {
		s.gapBreak = false
		s.openRoot(rootObj)
		s.run()
	}
	firstPop() // cuts the root's snapshot buffer and the block of nodes every later root comes from
	if !s.gapBreak || s.nodes != 1 {
		t.Fatalf("gap break %v after %d nodes; want the first pop to end the search", s.gapBreak, s.nodes)
	}
	// What a later search takes goes back, as it would at the solve's rewind.
	// The mark is taken after a second search, which outgrows the arrays the
	// warm-up solves sized, so that it lies in the arrays the runs take from.
	firstPop()
	floats, int32s := ws.floats.used, ws.int32s.used
	again := func() {
		firstPop()
		ws.floats.handBack(floats)
		ws.int32s.handBack(int32s)
	}
	if n := testing.AllocsPerRun(20, again); n != 0 {
		t.Errorf("opening the tree and ending at the first pop allocates %v times on a warm workspace", n)
	}
}

// handBack returns to the slab, wiped, what it handed out past used, as a
// rewind returns all of it; used must be a position in the current array.
func (s *slab[T]) handBack(used int) {
	clear(s.buf[used:s.used])
	s.used = used
}
