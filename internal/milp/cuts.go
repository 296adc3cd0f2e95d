package milp

import (
	"math"
	"sort"
)

// Root cutting planes.
//
// The STRL compiler's placement models carry heavy set-packing structure
// (choose-≤-1 indicator rows, capacity knapsacks over binary placement
// indicators), so two classic families close most of the root gap cheaply:
//
//   - cover cuts: for a knapsack row Σ a_j·x_j ≤ b over binaries with a_j > 0,
//     any subset C with Σ_{C} a_j > b admits Σ_{C} x_j ≤ |C|−1;
//   - clique cuts: merging the pairwise conflicts implied by the model's
//     set-packing rows (the same literal encoding presolve's clique
//     domination uses) can yield a clique spanning several rows, giving
//     Σ pos x_j − Σ neg x_j ≤ 1 − |neg| — strictly stronger than any one row.
//
// Both families are valid for every integer-feasible point, never merely for
// the optimum, so adding them cannot change the MILP's optimal objective or
// cut off any feasible schedule — only tighten the LP relaxation the
// branch-and-bound bounds come from. Separation runs only at the root
// (Options.DisableCuts kills it), for a bounded number of rounds, on a copy
// of the model; node re-solves then inherit the tightened relaxation for
// free through the shared LP.

// CutStats reports root cutting-plane activity for one Solve call.
type CutStats struct {
	// Rounds is the number of separation rounds that added at least one cut.
	Rounds int
	// Cover and Clique count the cuts added by family.
	Cover  int
	Clique int
}

func (a *CutStats) add(b *CutStats) {
	a.Rounds += b.Rounds
	a.Cover += b.Cover
	a.Clique += b.Clique
}

const (
	// maxCutRounds bounds root separation rounds; each re-solves the root LP.
	maxCutRounds = 3
	// maxCutsPerRound bounds cuts added per round, most violated first.
	maxCutsPerRound = 64
	// cutViolationTol is the minimum LP violation worth cutting; anything
	// smaller is noise against feasTol and will not move the relaxation.
	cutViolationTol = 1e-4
	// maxCutRows caps the rows scanned per family, like presolve's
	// maxCliqueRows; compiled models stay far below it.
	maxCutRows = 4096
)

// cutCandidate is one violated inequality found by a separation pass.
type cutCandidate struct {
	con       Constraint
	violation float64
	clique    bool
	key       string // canonical literal signature for in-round dedup
}

// isBinaryVar reports whether column v is a 0/1 integer column in m.
func isBinaryVar(m *Model, v int) bool {
	vr := &m.Vars[v]
	return vr.Type != Continuous && vr.Lb == 0 && vr.Ub == 1
}

// packingLits extracts the literal list of a set-packing row
// Σ pos − Σ neg ≤ 1 − |neg| over binaries, the same shape presolve's
// mergeCliques recognizes: literal 2v is "x_v = 1", literal 2v+1 is the
// complement "x_v = 0". Returns nil when the row is not a packing row.
func packingLits(m *Model, con *Constraint, buf []int) []int {
	if con.Op != LE || len(con.Terms) < 2 {
		return nil
	}
	neg := 0
	lits := buf[:0]
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

// litValue is the LP value of a literal: x_v for 2v, 1−x_v for 2v+1.
func litValue(x []float64, lit int) float64 {
	if lit&1 == 0 {
		return x[lit/2]
	}
	return 1 - x[lit/2]
}

// cliqueConstraint converts a literal clique into its packing inequality.
func cliqueConstraint(lits []int) Constraint {
	con := Constraint{Name: Lit("cut:clique"), Op: LE, RHS: 1}
	for _, l := range lits {
		if l&1 == 0 {
			con.Terms = append(con.Terms, Term{Var: VarID(l / 2), Coef: 1})
		} else {
			con.Terms = append(con.Terms, Term{Var: VarID(l / 2), Coef: -1})
			con.RHS--
		}
	}
	return con
}

// litKey canonicalizes a sorted literal list for duplicate suppression.
func litKey(lits []int) string {
	b := make([]byte, 0, len(lits)*4)
	for _, l := range lits {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

// separateCliqueCuts merges the conflict edges of the model's set-packing
// rows and greedily grows cliques around the most fractional literals. A
// clique contained in a single existing row separates nothing (the LP already
// satisfies that row), so only cliques whose literal set extends every
// originating row can be violated — exactly the cross-row strengthening
// presolve's domination pass cannot do, because no single stronger row exists
// in the model.
func separateCliqueCuts(m *Model, x []float64, out []cutCandidate) []cutCandidate {
	// Conflict adjacency over literals, built from pairwise conflicts of each
	// packing row. Literal space is 2·|vars|; only literals that appear in
	// some packing row get a map entry.
	adj := make(map[int]map[int]struct{})
	addEdge := func(a, b int) {
		ea := adj[a]
		if ea == nil {
			ea = make(map[int]struct{})
			adj[a] = ea
		}
		ea[b] = struct{}{}
	}
	var litBuf []int
	rows := 0
	for ci := range m.Cons {
		lits := packingLits(m, &m.Cons[ci], litBuf)
		if lits == nil {
			continue
		}
		litBuf = lits[:0]
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
	if len(adj) == 0 {
		return out
	}
	// Seed order: literals by LP value descending — a violated clique needs
	// literal values summing past 1, so high-value literals lead.
	seeds := make([]int, 0, len(adj))
	for l := range adj {
		if litValue(x, l) > cutViolationTol {
			seeds = append(seeds, l)
		}
	}
	sort.Slice(seeds, func(i, j int) bool {
		vi, vj := litValue(x, seeds[i]), litValue(x, seeds[j])
		if vi != vj {
			return vi > vj
		}
		return seeds[i] < seeds[j]
	})
	seen := make(map[string]struct{})
	for _, seed := range seeds {
		clique := []int{seed}
		total := litValue(x, seed)
		// Greedy growth over the seed's neighbors, best LP value first.
		nbrs := make([]int, 0, len(adj[seed]))
		for n := range adj[seed] {
			nbrs = append(nbrs, n)
		}
		sort.Slice(nbrs, func(i, j int) bool {
			vi, vj := litValue(x, nbrs[i]), litValue(x, nbrs[j])
			if vi != vj {
				return vi > vj
			}
			return nbrs[i] < nbrs[j]
		})
		for _, n := range nbrs {
			if n/2 == seed/2 {
				continue // a variable never conflicts with itself usefully
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
		key := litKey(clique)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, cutCandidate{
			con:       cliqueConstraint(clique),
			violation: total - 1,
			clique:    true,
			key:       key,
		})
	}
	return out
}

// separateCoverCuts scans knapsack rows (positive coefficients over binaries,
// ≤ with positive slack capacity) for violated cover inequalities, greedily
// building each cover from the row's most fractional items.
func separateCoverCuts(m *Model, x []float64, out []cutCandidate) []cutCandidate {
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
			continue // not a knapsack, or it can never bind
		}
		if rows++; rows >= maxCutRows {
			break
		}
		// Greedy cover: take items by LP value descending until their
		// coefficients exceed the capacity.
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
		// Violation check: Σ_C x* > |C| − 1.
		xsum := 0.0
		for _, it := range items[:cover] {
			xsum += x[it.v]
		}
		violation := xsum - float64(cover-1)
		if violation <= cutViolationTol {
			continue
		}
		lits := make([]int, cover)
		cut := Constraint{Name: Lit("cut:cover"), Op: LE, RHS: float64(cover - 1)}
		for i, it := range items[:cover] {
			lits[i] = it.v * 2
			cut.Terms = append(cut.Terms, Term{Var: VarID(it.v), Coef: 1})
		}
		sort.Ints(lits)
		key := litKey(lits)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, cutCandidate{con: cut, violation: violation, key: key})
	}
	return out
}

// separateCuts runs both families at the LP point x and returns the most
// violated candidates, capped at maxCutsPerRound, deduplicated by literal
// signature across families.
func separateCuts(m *Model, x []float64) []cutCandidate {
	cands := separateCoverCuts(m, x, nil)
	cands = separateCliqueCuts(m, x, cands)
	if len(cands) == 0 {
		return nil
	}
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

// runCutRounds strengthens the root relaxation with separation rounds: find
// violated cuts at the current root point, append them to a copy of the
// model, rebuild the LP, and re-solve cold. The search's model, LP, and
// scratch are replaced on every successful round — structural variable
// indexing is untouched (cuts only append rows), so incumbents, heuristics,
// and postsolve lifting are unaffected. Any round whose re-solve does not
// reach optimality is discarded and cutting stops; cuts are an optional
// strengthening, never a correctness dependency.
func (s *search) runCutRounds(x []float64, rootObj float64) ([]float64, float64) {
	for round := 0; round < maxCutRounds; round++ {
		cands := separateCuts(s.model, x)
		if len(cands) == 0 {
			return x, rootObj
		}
		cons := s.ws.cons.take(len(s.model.Cons) + len(cands))[:len(s.model.Cons)]
		copy(cons, s.model.Cons)
		grown := &Model{Sense: s.model.Sense, Vars: s.model.Vars, Cons: cons}
		nCover, nClique := 0, 0
		for _, c := range cands {
			grown.Cons = append(grown.Cons, c.con)
			if c.clique {
				nClique++
			} else {
				nCover++
			}
		}
		p2 := s.ws.newLP(grown)
		p2.dense = s.p.dense
		sc2 := s.ws.newScratch(p2)
		st, nx, err := sc2.solve(p2.lb, p2.ub, 0, s.deadline)
		if err != nil || st != lpOptimal {
			// Deadline, iteration cap, or numerical trouble on the grown LP:
			// keep the un-cut root, which is already solved and valid.
			return x, rootObj
		}
		s.lp.add(&s.scratch.stats) // the old scratch retires with this round
		s.model, s.p, s.scratch = grown, p2, sc2
		s.cuts.Rounds++
		s.cuts.Cover += nCover
		s.cuts.Clique += nClique
		x = nx
		rootObj = s.model.ObjectiveValue(x[:len(s.model.Vars)])
		if firstFractional(s.model, x) < 0 {
			return x, rootObj // integral: no further separation needed
		}
	}
	return x, rootObj
}
