package milp

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
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
//     set-packing rows can yield a clique spanning several rows, giving
//     Σ pos x_j − Σ neg x_j ≤ 1 − |neg| — strictly stronger than any one row.
//
// Both families are valid for every integer-feasible point, never merely for
// the optimum, so adding them cannot change the MILP's optimal objective or
// cut off any feasible schedule — only tighten the LP relaxation the
// branch-and-bound bounds come from. Separation runs only at the root
// (Options.DisableCuts kills it), for a bounded number of rounds, each on a
// copy of the model's row list grown by the round's cuts and re-solved from
// the round before's basis; node re-solves then inherit the tightened
// relaxation for free through the shared LP.

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
	// maxCutRows caps the rows scanned per family; compiled models stay far
	// below it.
	maxCutRows = 4096
)

// cutCandidate is one violated inequality a separation round settled on.
type cutCandidate struct {
	con       Constraint
	violation float64
	clique    bool
}

// cutLits is a violated inequality as separation finds it: literal lists in
// cutScratch.keys, not yet a row. Most candidates of a round are
// duplicates or fall to the per-round cap, so rows are only built for the
// survivors.
type cutLits struct {
	key       int // keys[key:key+n]: the literals ascending; the duplicate and tie-break key
	row       int // keys[row:row+n]: the literals in row order (a cover keeps its greedy order)
	n         int
	violation float64
	clique    bool
}

// litRow is one set-packing row in flat literal storage: the row's index and
// the [lo, hi) extent of its literals, the shape clique separation works on.
type litRow struct {
	ri, lo, hi int
}

// coverItem is one column of a knapsack row under cover separation.
type coverItem struct {
	v int
	a float64
}

// cutScratch is the separation memory a Workspace keeps from round to round
// and solve to solve: lists that grow by append. The arrays indexed by
// literal, whose size is known up front, come from the int slab for the
// duration of one round.
type cutScratch struct {
	rows   []litRow // packing rows of the model
	lits   []int    // their literals
	cands  []cutLits
	keys   []int // candidate literal lists
	items  []coverItem
	seeds  []int
	nbrs   []int
	clique []int
	kept   []cutCandidate
}

// isBinaryVar reports whether column v is a 0/1 integer column in m.
func isBinaryVar(m *Model, v int) bool {
	vr := &m.Vars[v]
	return vr.Type != Continuous && vr.Lb == 0 && vr.Ub == 1
}

// appendPackingLits appends the literals of a set-packing row
// Σ pos − Σ neg ≤ 1 − |neg| over binaries: literal 2v is "x_v = 1", literal 2v+1 is the
// complement "x_v = 0". It reports false, with lits as it was, when the row is
// not a packing row.
func appendPackingLits(lits []int, m *Model, con *Constraint) ([]int, bool) {
	if con.Op != LE || len(con.Terms) < 2 {
		return lits, false
	}
	neg := 0
	lo := len(lits)
	for _, t := range con.Terms {
		if !isBinaryVar(m, int(t.Var)) {
			return lits[:lo], false
		}
		switch t.Coef {
		case 1:
			lits = append(lits, int(t.Var)*2)
		case -1:
			neg++
			lits = append(lits, int(t.Var)*2+1)
		default:
			return lits[:lo], false
		}
	}
	if math.Abs(con.RHS-(1-float64(neg))) > 1e-9 {
		return lits[:lo], false
	}
	return lits, true
}

// litValue is the LP value of a literal: x_v for 2v, 1−x_v for 2v+1.
func litValue(x []float64, lit int) float64 {
	if lit&1 == 0 {
		return x[lit/2]
	}
	return 1 - x[lit/2]
}

// byValueThenIndex orders by LP value descending, index ascending: a violated
// cut needs values summing past a threshold, so high values lead.
func byValueThenIndex(va, vb float64, a, b int) int {
	if va != vb {
		if va > vb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a, b)
}

// compareKeys orders two ascending literal lists as their historical
// signature did: each literal written as four little-endian bytes, the byte
// strings compared. Which of two equally violated cuts makes the per-round
// cap decides the LP, and so the schedule; the order is kept to the bit.
func compareKeys(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return cmp.Compare(bits.ReverseBytes32(uint32(a[i])), bits.ReverseBytes32(uint32(b[i])))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// candTable is an open-addressing set of one family's candidates, keyed by
// their ascending literal lists: entry e is candidate e−1, 0 is empty.
type candTable []int

// newCandTable takes a table for at most n candidates from the int slab.
func (w *Workspace) newCandTable(n int) candTable {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return w.ints.take(size)
}

// claim reports whether the literal list key is new to the table, and if so
// files it as the candidate about to be appended to c.cands.
func (c *cutScratch) claim(t candTable, key []int) bool {
	h := uint64(len(key))
	for _, l := range key {
		h = mix64(h, uint64(l))
	}
	mask := len(t) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if t[i] == 0 {
			t[i] = len(c.cands) + 1
			return true
		}
		if e := &c.cands[t[i]-1]; slices.Equal(c.keys[e.key:e.key+e.n], key) {
			return false
		}
	}
}

// mix64 folds v into the hash h (a splitmix64-style finalization).
func mix64(h, v uint64) uint64 {
	v += h
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// separateCliqueCuts merges the conflict edges of the model's set-packing
// rows and greedily grows cliques around the most fractional literals. A
// clique contained in a single existing row separates nothing (the LP already
// satisfies that row), so only cliques whose literal set extends every
// originating row can be violated — the cross-row strengthening no single
// row of the model states.
//
// Two literals conflict when some packing row holds both; "conflicts with
// every clique member" is a count per literal of the members that have
// reached it (see conflicts).
func (w *Workspace) separateCliqueCuts(m *Model, x []float64) {
	c := &w.cut
	rows, lits := c.rows[:0], c.lits[:0]
	for ci := range m.Cons {
		lo := len(lits)
		var ok bool
		if lits, ok = appendPackingLits(lits, m, &m.Cons[ci]); !ok {
			continue
		}
		rows = append(rows, litRow{ri: ci, lo: lo, hi: len(lits)})
		if len(rows) >= maxCutRows {
			break
		}
	}
	c.rows, c.lits = rows, lits
	if len(rows) == 0 {
		return
	}
	// Index the rows by literal.
	nl := 2 * len(m.Vars)
	g := conflicts{rows: rows, lits: lits, start: w.ints.take(nl + 1), rowsOf: w.ints.take(len(lits)), stamp: w.ints.take(nl), count: w.ints.take(nl)}
	for _, l := range lits {
		g.start[l+1]++
	}
	for l := 0; l < nl; l++ {
		g.start[l+1] += g.start[l]
	}
	// count is the fill cursor first: join sets a count before anything reads
	// it, whatever it holds.
	copy(g.count, g.start)
	for ri, r := range rows {
		for _, l := range lits[r.lo:r.hi] {
			g.rowsOf[g.count[l]] = ri
			g.count[l]++
		}
	}
	// Seed order: literals by LP value descending — a violated clique needs
	// literal values summing past 1, so high-value literals lead.
	seeds := c.seeds[:0]
	for l := 0; l < nl; l++ {
		if g.start[l+1] > g.start[l] && litValue(x, l) > cutViolationTol {
			seeds = append(seeds, l)
		}
	}
	byValue := func(a, b int) int { return byValueThenIndex(litValue(x, a), litValue(x, b), a, b) }
	slices.SortFunc(seeds, byValue)
	c.seeds = seeds
	seen := w.newCandTable(len(seeds))
	for _, seed := range seeds {
		// Greedy growth over the seed's neighbours, best LP value first.
		nbrs := g.join(seed, true, c.nbrs[:0])
		c.nbrs = nbrs
		slices.SortFunc(nbrs, byValue)
		clique := append(c.clique[:0], seed)
		total := litValue(x, seed)
		for _, n := range nbrs {
			if n/2 == seed/2 {
				continue // a variable never conflicts with itself usefully
			}
			if g.count[n] != len(clique) {
				continue // some member shares no row with it
			}
			clique = append(clique, n)
			total += litValue(x, n)
			g.join(n, false, nil)
		}
		c.clique = clique
		if len(clique) < 3 || total <= 1+cutViolationTol {
			continue
		}
		slices.Sort(clique)
		if !c.claim(seen, clique) {
			continue
		}
		key := len(c.keys)
		c.keys = append(c.keys, clique...)
		c.cands = append(c.cands, cutLits{key: key, row: key, n: len(clique), violation: total - 1, clique: true})
	}
}

// conflicts answers, for the literals of a model's packing rows, which
// literals share a row with a given one — the edges of the conflict graph,
// read off a literal → rows index instead of stored.
type conflicts struct {
	rows   []litRow
	lits   []int
	start  []int // rowsOf[start[l]:start[l+1]]: the rows literal l occurs in
	rowsOf []int
	stamp  []int // serial of the last join that reached the literal
	count  []int // clique members the literal conflicts with; kept for the seed's neighbours only
	serial int
}

// join reaches every literal that shares a row with member, once, as member
// joins the clique being grown. The seed's join starts the counts of the
// literals it reaches and lists them in nbrs; a later member's raises them.
func (g *conflicts) join(member int, seed bool, nbrs []int) []int {
	g.serial++
	for k := g.start[member]; k < g.start[member+1]; k++ {
		r := g.rows[g.rowsOf[k]]
		for _, l := range g.lits[r.lo:r.hi] {
			if l == member || g.stamp[l] == g.serial {
				continue
			}
			g.stamp[l] = g.serial
			if seed {
				g.count[l] = 1
				nbrs = append(nbrs, l)
			} else {
				g.count[l]++
			}
		}
	}
	return nbrs
}

// separateCoverCuts scans knapsack rows (positive coefficients over binaries,
// ≤ with positive slack capacity) for violated cover inequalities, greedily
// building each cover from the row's most fractional items.
func (w *Workspace) separateCoverCuts(m *Model, x []float64) {
	c := &w.cut
	seen := w.newCandTable(min(len(m.Cons), maxCutRows))
	rows := 0
	for ci := range m.Cons {
		con := &m.Cons[ci]
		if con.Op != LE || len(con.Terms) < 3 || con.RHS <= 0 {
			continue
		}
		ok := true
		items := c.items[:0]
		sum := 0.0
		for _, t := range con.Terms {
			if t.Coef <= 0 || !isBinaryVar(m, int(t.Var)) {
				ok = false
				break
			}
			items = append(items, coverItem{v: int(t.Var), a: t.Coef})
			sum += t.Coef
		}
		c.items = items
		if !ok || sum <= con.RHS+1e-9 {
			continue // not a knapsack, or it can never bind
		}
		if rows++; rows >= maxCutRows {
			break
		}
		// Greedy cover: take items by LP value descending until their
		// coefficients exceed the capacity.
		slices.SortFunc(items, func(a, b coverItem) int { return byValueThenIndex(x[a.v], x[b.v], a.v, b.v) })
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
		key := len(c.keys)
		for _, it := range items[:cover] {
			c.keys = append(c.keys, it.v*2)
		}
		slices.Sort(c.keys[key:])
		if !c.claim(seen, c.keys[key:]) {
			c.keys = c.keys[:key]
			continue
		}
		row := len(c.keys)
		for _, it := range items[:cover] {
			c.keys = append(c.keys, it.v*2)
		}
		c.cands = append(c.cands, cutLits{key: key, row: row, n: cover, violation: violation})
	}
}

// separateCuts runs both families at the LP point x and returns the most
// violated candidates as rows, or nil when nothing is violated. The returned
// slice is the workspace's and is overwritten by the next round.
func (w *Workspace) separateCuts(m *Model, x []float64) []cutCandidate {
	c := &w.cut
	c.cands, c.keys = c.cands[:0], c.keys[:0]
	mark := w.ints.mark()
	w.separateCoverCuts(m, x)
	w.separateCliqueCuts(m, x)
	w.ints.release(mark)
	return w.selectCuts()
}

// selectCuts keeps the most violated of the round's candidates, capped at
// maxCutsPerRound and deduplicated by literal signature across families, and
// builds their rows on the term slab.
func (w *Workspace) selectCuts() []cutCandidate {
	c := &w.cut
	if len(c.cands) == 0 {
		return nil
	}
	keyOf := func(e *cutLits) []int { return c.keys[e.key : e.key+e.n] }
	// Most violated first, the signature breaking ties. The order is total:
	// a family holds no signature twice, and a cover and a clique over one
	// literal set differ in violation by |C| − 2 ≥ 1.
	slices.SortFunc(c.cands, func(a, b cutLits) int {
		if a.violation != b.violation {
			if a.violation > b.violation {
				return -1
			}
			return 1
		}
		return compareKeys(keyOf(&a), keyOf(&b))
	})
	// A duplicate is a cover and a clique over the same literals; the more
	// violated one is already kept.
	kept := c.cands[:0]
	for i := range c.cands {
		e := &c.cands[i]
		if slices.ContainsFunc(kept, func(k cutLits) bool { return slices.Equal(keyOf(&k), keyOf(e)) }) {
			continue
		}
		kept = append(kept, *e)
		if len(kept) >= maxCutsPerRound {
			break
		}
	}
	out := c.kept[:0]
	for i := range kept {
		e := &kept[i]
		cut := cutCandidate{violation: e.violation, clique: e.clique}
		cut.con = Constraint{Op: LE, RHS: float64(e.n - 1), Terms: w.terms.take(e.n)}
		if e.clique {
			cut.con.RHS = 1
		}
		for k, l := range c.keys[e.row : e.row+e.n] {
			cut.con.Terms[k] = Term{Var: VarID(l / 2), Coef: 1}
			if l&1 != 0 {
				cut.con.Terms[k].Coef = -1
				cut.con.RHS--
			}
		}
		out = append(out, cut)
	}
	c.kept = out
	return out
}

// runCutRounds strengthens the root relaxation with separation rounds: find
// violated cuts at the current root point, append them to a copy of the
// model's row list, rebuild the LP, and re-solve it from the previous round's
// optimal basis (grownBasis). The search's model, LP, and scratch are replaced
// on every successful round — structural variable indexing is untouched (cuts
// only append rows), so incumbents and heuristic candidates are
// unaffected. Any round whose re-solve does not reach optimality is discarded
// and cutting stops; cuts are an optional strengthening, never a correctness
// dependency. Each round's LP point goes to the caller's heuristic like a
// node's, and separation stops as soon as the tightened bound meets the gap:
// the tree would end at its first pop.
func (s *search) runCutRounds(x []float64, rootObj float64) ([]float64, float64) {
	for round := 0; round < maxCutRounds && !s.gapMet(rootObj) && s.left() > 0; round++ {
		cands := s.ws.separateCuts(s.model, x)
		if len(cands) == 0 {
			return x, rootObj
		}
		cons := s.ws.cons.take(len(s.model.Cons) + len(cands))[:len(s.model.Cons)]
		copy(cons, s.model.Cons)
		grown := &s.ws.models.take(1)[0]
		grown.Vars, grown.Cons = s.model.Vars, cons
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
		sc2 := s.ws.newScratch(p2)
		// The carried-over basis is read once, on the way into the solve.
		mark := s.ws.mark()
		st, nx, err := sc2.solveFrom(s.grownBasis(p2), p2.lb, p2.ub, s.left())
		s.ws.release(mark)
		if err != nil || st != lpOptimal {
			// Work budget, iteration cap, or numerical trouble on the grown LP:
			// keep the un-cut root, which is already solved and valid. The
			// work spent on the attempt still counts.
			s.lp.add(&sc2.stats)
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
		s.consider(s.round(x))
	}
	return x, rootObj
}

// grownBasis is the optimal basis s.scratch holds, carried over to p2 — the
// search's LP with cut rows appended — for a dual-simplex re-solve: each new
// row's slack is basic, so the duals of the old rows and every reduced cost
// are what they were, and only the rows the old optimum violates are left to
// repair. Nil (solve cold) with warm starts disabled or a basis that cannot
// seed one; a snapshot that turns out stale falls back in solveFrom.
func (s *search) grownBasis(p2 *lp) *basisState {
	if s.opts.DisableWarmStart {
		return nil
	}
	// New slacks follow the old columns, so the old basis and statuses are a
	// prefix of the new ones.
	bs := capture(s.scratch, s.ws.newSnapshot(p2))
	if bs == nil {
		return nil
	}
	for i := s.p.m; i < p2.m; i++ {
		sj := p2.nvars + i
		bs.basis[i], bs.status[sj] = int32(sj), inBasis
	}
	return bs
}
