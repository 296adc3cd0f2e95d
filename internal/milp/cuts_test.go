package milp

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// The separation routines as they were before they moved to workspace
// scratch — a map of maps for the conflict graph, a string signature per
// candidate, sort.Slice — kept as the reference the array-based ones must
// reproduce cut for cut: which cuts a round adds decides the LP every node
// bound comes from, and so the schedule.

type refCut struct {
	con       Constraint
	violation float64
	clique    bool
	key       string
}

func refPackingLits(m *Model, con *Constraint) []int {
	if con.Op != LE || len(con.Terms) < 2 {
		return nil
	}
	neg := 0
	var lits []int
	for _, t := range con.Terms {
		if !isBinaryVar(m, int(t.Var)) {
			return nil
		}
		switch t.Coef {
		case 1:
			lits = append(lits, int(t.Var)*2)
		case -1:
			neg++
			lits = append(lits, int(t.Var)*2+1)
		default:
			return nil
		}
	}
	if math.Abs(con.RHS-(1-float64(neg))) > 1e-9 {
		return nil
	}
	return lits
}

func refLitKey(lits []int) string {
	b := make([]byte, 0, len(lits)*4)
	for _, l := range lits {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

func refSeparateCliqueCuts(m *Model, x []float64, out []refCut) []refCut {
	adj := make(map[int]map[int]struct{})
	addEdge := func(a, b int) {
		if adj[a] == nil {
			adj[a] = make(map[int]struct{})
		}
		adj[a][b] = struct{}{}
	}
	rows := 0
	for ci := range m.Cons {
		lits := refPackingLits(m, &m.Cons[ci])
		if lits == nil {
			continue
		}
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				addEdge(lits[i], lits[j])
				addEdge(lits[j], lits[i])
			}
		}
		if rows++; rows >= maxCutRows {
			break
		}
	}
	byValue := func(l []int) func(i, j int) bool {
		return func(i, j int) bool {
			vi, vj := litValue(x, l[i]), litValue(x, l[j])
			if vi != vj {
				return vi > vj
			}
			return l[i] < l[j]
		}
	}
	var seeds []int
	for l := range adj {
		if litValue(x, l) > cutViolationTol {
			seeds = append(seeds, l)
		}
	}
	sort.Slice(seeds, byValue(seeds))
	seen := make(map[string]struct{})
	for _, seed := range seeds {
		clique := []int{seed}
		total := litValue(x, seed)
		var nbrs []int
		for n := range adj[seed] {
			nbrs = append(nbrs, n)
		}
		sort.Slice(nbrs, byValue(nbrs))
		for _, n := range nbrs {
			if n/2 == seed/2 {
				continue
			}
			compatible := true
			for _, c := range clique {
				if _, ok := adj[n][c]; !ok {
					compatible = false
					break
				}
			}
			if compatible {
				clique = append(clique, n)
				total += litValue(x, n)
			}
		}
		if len(clique) < 3 || total <= 1+cutViolationTol {
			continue
		}
		sort.Ints(clique)
		key := refLitKey(clique)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		con := Constraint{Op: LE, RHS: 1}
		for _, l := range clique {
			if l&1 == 0 {
				con.Terms = append(con.Terms, Term{Var: VarID(l / 2), Coef: 1})
			} else {
				con.Terms = append(con.Terms, Term{Var: VarID(l / 2), Coef: -1})
				con.RHS--
			}
		}
		out = append(out, refCut{con: con, violation: total - 1, clique: true, key: key})
	}
	return out
}

func refSeparateCoverCuts(m *Model, x []float64, out []refCut) []refCut {
	type item struct {
		v int
		a float64
	}
	var items []item
	seen := make(map[string]struct{})
	rows := 0
	for ci := range m.Cons {
		con := &m.Cons[ci]
		if con.Op != LE || len(con.Terms) < 3 || con.RHS <= 0 {
			continue
		}
		ok := true
		items = items[:0]
		sum := 0.0
		for _, t := range con.Terms {
			if t.Coef <= 0 || !isBinaryVar(m, int(t.Var)) {
				ok = false
				break
			}
			items = append(items, item{v: int(t.Var), a: t.Coef})
			sum += t.Coef
		}
		if !ok || sum <= con.RHS+1e-9 {
			continue
		}
		if rows++; rows >= maxCutRows {
			break
		}
		sort.Slice(items, func(i, j int) bool {
			if x[items[i].v] != x[items[j].v] {
				return x[items[i].v] > x[items[j].v]
			}
			return items[i].v < items[j].v
		})
		acc := 0.0
		cover := 0
		for cover < len(items) && acc <= con.RHS+1e-9 {
			acc += items[cover].a
			cover++
		}
		if acc <= con.RHS+1e-9 {
			continue
		}
		xsum := 0.0
		for _, it := range items[:cover] {
			xsum += x[it.v]
		}
		violation := xsum - float64(cover-1)
		if violation <= cutViolationTol {
			continue
		}
		lits := make([]int, cover)
		cut := Constraint{Op: LE, RHS: float64(cover - 1)}
		for i, it := range items[:cover] {
			lits[i] = it.v * 2
			cut.Terms = append(cut.Terms, Term{Var: VarID(it.v), Coef: 1})
		}
		sort.Ints(lits)
		key := refLitKey(lits)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, refCut{con: cut, violation: violation, key: key})
	}
	return out
}

// refSeparateCuts sorts and caps the given families' candidates as
// separateCuts did.
func refSeparateCuts(cands []refCut) []refCut {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].violation != cands[j].violation {
			return cands[i].violation > cands[j].violation
		}
		return cands[i].key < cands[j].key
	})
	seen := make(map[string]struct{}, len(cands))
	kept := cands[:0]
	for _, c := range cands {
		if _, dup := seen[c.key]; dup {
			continue
		}
		seen[c.key] = struct{}{}
		kept = append(kept, c)
		if len(kept) >= maxCutsPerRound {
			break
		}
	}
	return kept
}

// cliqueTieModel has far more violated cliques than a round may add, most of
// them equally violated, over variable indices past 128 — where the historical
// byte-string signature order and numeric literal order part ways. Triangle t
// is three pairwise packing rows over its own three variables (the LP optimum
// sets each to ½: every triangle clique is violated by exactly ½); a few
// triangles get a fourth variable and heavier objective weights so violations
// are not all tied, and every fifth row complements a variable.
func cliqueTieModel() *Model {
	m := &Model{}
	for t := 0; t < 110; t++ {
		a, b, c := m.AddVar(Binary, 0, 1, 1), m.AddVar(Binary, 0, 1, 1), m.AddVar(Binary, 0, 1, 1)
		for _, pair := range [][2]VarID{{a, b}, {b, c}, {a, c}} {
			m.AddConstraint([]Term{{pair[0], 1}, {pair[1], 1}}, LE, 1)
		}
		if t%7 == 0 {
			d := m.AddVar(Binary, 0, 1, 1+float64(t%3))
			for _, v := range []VarID{a, b, c} {
				m.AddConstraint([]Term{{v, 1}, {d, 1}}, LE, 1)
			}
		}
		if t%5 == 0 {
			// "not a, or not e": a's complement never conflicts usefully with a.
			e := m.AddVar(Binary, 0, 1, 0.5)
			m.AddConstraint([]Term{{a, -1}, {e, 1}}, LE, 0)
			m.AddConstraint([]Term{{e, 1}, {b, 1}}, LE, 1)
		}
	}
	return m
}

// rootPoint solves the model's root relaxation as branchAndBound would.
func rootPoint(t *testing.T, m *Model) []float64 {
	t.Helper()
	p := newLP(m)
	st, x, err := solveLP(p, p.lb, p.ub, 0)
	if err != nil || st != lpOptimal {
		t.Fatalf("root LP: %v %v", st, err)
	}
	return x
}

// separationCases are the models the two families are compared on: root
// points of packing models, of resident blocks, and of the tie model — and,
// where presolve drops a row, the presolved one too (the solver separates on
// that).
func separationCases(t *testing.T) map[string]*Model {
	t.Helper()
	cases := map[string]*Model{"ties": cliqueTieModel()}
	for seed := int64(1); seed <= 12; seed++ {
		cases["packing"+string(rune('a'+seed))] = packingModel(seed, 20+int(seed)*5)
	}
	for arrivals := 0; arrivals <= 3; arrivals++ {
		cases["resident"+string(rune('0'+arrivals))] = residentModel(arrivals)
	}
	for name, m := range cases {
		if pre := Presolve(m); !pre.Infeasible && pre.Model != m {
			cases[name+"/presolved"] = pre.Model
		}
	}
	return cases
}

func sameCut(got cutCandidate, want refCut) bool {
	return got.clique == want.clique &&
		math.Float64bits(got.violation) == math.Float64bits(want.violation) &&
		got.con.Op == want.con.Op && got.con.RHS == want.con.RHS &&
		reflect.DeepEqual(got.con.Terms, want.con.Terms)
}

// compareSeparation runs one family (or both) through the new and the
// reference pipeline over several rounds — each round's cuts are added to the
// model and the root re-solved, as runCutRounds does — on one workspace that
// is never rewound in between.
func compareSeparation(t *testing.T, cover, clique bool) (cuts, capped, tied int) {
	var ws Workspace
	for name, m := range separationCases(t) {
		for round := 0; round < maxCutRounds; round++ {
			x := rootPoint(t, m)
			var ref []refCut
			ws.cut.cands, ws.cut.keys = ws.cut.cands[:0], ws.cut.keys[:0]
			mark := ws.ints.mark()
			if cover {
				ref = refSeparateCoverCuts(m, x, ref)
				ws.separateCoverCuts(m, x)
			}
			if clique {
				ref = refSeparateCliqueCuts(m, x, ref)
				ws.separateCliqueCuts(m, x)
			}
			ws.ints.release(mark)
			if len(ref) != len(ws.cut.cands) {
				t.Fatalf("%s round %d: %d candidates, the reference finds %d", name, round, len(ws.cut.cands), len(ref))
			}
			if len(ref) > maxCutsPerRound {
				capped++
			}
			want := refSeparateCuts(ref)
			got := ws.selectCuts()
			if len(got) != len(want) {
				t.Fatalf("%s round %d: %d cuts kept, the reference keeps %d", name, round, len(got), len(want))
			}
			for i := range want {
				if !sameCut(got[i], want[i]) {
					t.Fatalf("%s round %d cut %d:\n got %+v\nwant %+v", name, round, i, got[i], want[i])
				}
				if i > 0 && want[i].violation == want[i-1].violation {
					tied++
				}
			}
			if len(want) == 0 {
				break
			}
			cuts += len(want)
			grown := &Model{Vars: m.Vars, Cons: append([]Constraint(nil), m.Cons...)}
			for _, c := range want {
				grown.Cons = append(grown.Cons, c.con)
			}
			m = grown
		}
	}
	return cuts, capped, tied
}

func TestCliqueSeparationMatchesReference(t *testing.T) {
	cuts, capped, tied := compareSeparation(t, false, true)
	if cuts == 0 || capped == 0 || tied == 0 {
		t.Fatalf("%d clique cuts compared, %d rounds over the cap, %d ties: the cases no longer exercise the order", cuts, capped, tied)
	}
	t.Logf("%d clique cuts identical to the reference (%d rounds over the cap, %d ties broken by signature)", cuts, capped, tied)
}

func TestCoverSeparationMatchesReference(t *testing.T) {
	cuts, _, _ := compareSeparation(t, true, false)
	if cuts == 0 {
		t.Fatal("no cover cut was compared")
	}
	t.Logf("%d cover cuts identical to the reference", cuts)
}

// TestSeparationMatchesReference is both families through separateCuts
// itself: the cross-family order and duplicate rule.
func TestSeparationMatchesReference(t *testing.T) {
	cuts, _, _ := compareSeparation(t, true, true)
	if cuts == 0 {
		t.Fatal("no cut was compared")
	}
}

// TestCompareKeysIsTheSignatureOrder checks the literal-list order against
// the byte strings it replaced, on literals on both sides of every byte
// boundary.
func TestCompareKeysIsTheSignatureOrder(t *testing.T) {
	lists := [][]int{{}, {0}, {1}, {255}, {256}, {257}, {511, 512}, {255, 256}, {256, 300}, {65535}, {65536}, {1 << 24}, {3, 70000}, {3, 70000, 70001}, {259, 1 << 20}}
	for _, a := range lists {
		for _, b := range lists {
			want := 0
			if ka, kb := refLitKey(a), refLitKey(b); ka < kb {
				want = -1
			} else if ka > kb {
				want = 1
			}
			if got := compareKeys(a, b); got != want {
				t.Errorf("compareKeys(%v, %v) = %d, the signatures compare %d", a, b, got, want)
			}
		}
	}
}

// TestFailedCutRoundKeepsItsLPWork: when the re-solve of a grown root LP does
// not reach optimality the round is discarded, but the pivots and
// factorizations it spent are still work the solve did; they used to vanish
// from Solution.LP with the dropped scratch. The re-solve is a dual restart
// from the root basis, or a cold primal with warm starts disabled.
func TestFailedCutRoundKeepsItsLPWork(t *testing.T) {
	for _, cold := range []bool{false, true} {
		m := residentModel(1)
		s, x, rootObj := rootSearch(t, new(Workspace), m, Options{DisableWarmStart: cold})
		if len(s.ws.separateCuts(m, x)) == 0 {
			t.Fatal("the root point violates no cut; the test exercises nothing")
		}
		leaveOneUnit(s) // the grown LP is cut off after one pivot
		gotX, gotObj := s.runCutRounds(x, rootObj)
		if &gotX[0] != &x[0] || gotObj != rootObj || s.model != m || s.cuts.Rounds != 0 {
			t.Fatalf("cold %v: the failed round was not discarded: obj %v (root %v), %+v", cold, gotObj, rootObj, s.cuts)
		}
		// One pivot, the one unit the budget had left, and for the warm restart
		// the factorization of the carried basis. The cold primal's pivot on
		// this block is a bound flip, which changes no basis and so updates no
		// factor.
		want := LPStats{Iterations: 1, WarmHits: 1, Factorizations: 1, EtaUpdates: 1}
		if cold {
			want = LPStats{Iterations: 1, ColdStarts: 1}
		}
		if s.lp != want {
			t.Fatalf("cold %v: the abandoned re-solve left %+v in the solve's LP telemetry, want %+v", cold, s.lp, want)
		}
		leaveOneUnit(s)
		s.openRoot(rootObj)
		s.run()
		// The root's cold start, the abandoned re-solve, and one abandoned node.
		sol := s.finish()
		if got := sol.LP.WarmHits + sol.LP.ColdStarts; got != 3 || sol.LP.ColdStarts < 1 {
			t.Fatalf("cold %v: Solution.LP %+v, want the root's, the abandoned re-solve's and the root node's LP", cold, sol.LP)
		}
	}
}
