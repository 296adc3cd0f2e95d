package milp

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// This file implements the presolve (model-reduction) pass that runs between
// compilation and branch-and-bound. The compiled STRL models carry structure
// a reducer can exploit — choose-≤-1 indicator rows, binaries already fixed
// by their bounds or by one-term rows, columns whose objective and rows all
// pull one way, and duplicate rows emitted by per-slice capacity expansion.
// Presolve applies a catalog of standard reductions repeatedly to a fixpoint:
//
//   - fixed-column substitution into the RHS with objective-constant
//     accumulation (rows left empty are checked and dropped);
//   - singleton-row conversion to bounds;
//   - dedup of identical rows (≥-rows are normalized to ≤ first, so a
//     mirrored pair also merges);
//   - clique strengthening: set-packing rows over binary literals that are
//     subsets of another packing row are implied by it and dropped;
//   - duality fixing: a variable whose objective and row coefficients all
//     pull one way is fixed to the corresponding bound (empty columns
//     included).
//
// There is no activity-based bound propagation or redundant-row detection:
// on the scheduler's traffic, every scoreboard workload and figure
// configuration, that pass never tightened a bound, fixed a column or dropped
// a row (docs/SOLVER.md, Reduction catalog).
//
// Every reduction preserves the optimal objective value, and the surviving
// reductions preserve feasibility of restricted points: mapping any feasible
// full-space point into the reduced space (dropping fixed columns) yields a
// feasible reduced point, so warm-start seeds and heuristic candidates pass
// through restrictInto unharmed. A solve lifts its reduced-space answer back
// to a full-space Solution — values for fixed columns, the accumulated
// objective constant on both objective and bound — so callers cannot observe
// the reduction.

// psTol is the presolve-local absolute tolerance for declaring a row violated (and hence
// the model infeasible) during presolve. It is deliberately tighter than the
// 1e-6 feasibility tolerance used by IsFeasible so presolve never rejects a
// model the solver would accept.
const psTol = 1e-7

// maxPresolveRounds bounds the reduce-to-fixpoint loop. Reductions monotonely
// shrink the model, so the loop terminates on its own; the cap is a backstop
// against tolerance-induced oscillation.
const maxPresolveRounds = 25

// PresolveStats reports what the presolve pass did to a model.
type PresolveStats struct {
	VarsFixed     int // columns fixed and substituted out
	RowsDropped   int // rows eliminated (singleton, duplicate, empty, clique-implied)
	CliquesMerged int // set-packing rows dropped as subsets of a stronger clique (also counted in RowsDropped)
	Rounds        int // fixpoint iterations run
	Duration      time.Duration
}

// add folds o into s (used when merging decomposed part solutions and when
// accumulating scheduler-lifetime telemetry).
func (s *PresolveStats) add(o *PresolveStats) {
	s.VarsFixed += o.VarsFixed
	s.RowsDropped += o.RowsDropped
	s.CliquesMerged += o.CliquesMerged
	s.Rounds += o.Rounds
	s.Duration += o.Duration
}

// Presolved is the outcome of reducing a model: the reduced model plus the
// postsolve state needed to lift reduced-space solutions and map full-space
// points (seeds, heuristic candidates) into the reduced space.
type Presolved struct {
	// Model is the reduced model to hand to the solver. When no reduction
	// fired it is the original model, untouched; when no column was fixed it
	// is over the original's variables and may share the original's term
	// arrays and columns (build). Neither model may be written while the
	// Presolved is in use.
	Model *Model
	// Stats records what the pass did.
	Stats PresolveStats
	// Infeasible reports that presolve proved the model has no feasible
	// point; Model is nil in that case.
	Infeasible bool

	identity bool      // no column fixed: lift and the point maps pass through
	nOrig    int       // variable count of the original model
	objConst float64   // objective contribution of the fixed columns
	isFixed  []bool    // original index -> fixed?
	fixedVal []float64 // original index -> fixed value
	keep     []int     // reduced index -> original index
}

// lift maps a reduced-space Solution back to the original model's space, into
// out, which it returns: values of fixed columns are restored, and the
// objective constant is added to both the objective and the proven bound. The
// lifted Values go in out.Values' memory when they fit there, and are a copy
// of sol's either way; sol is not modified.
func (p *Presolved) lift(sol, out *Solution) *Solution {
	dst := out.Values[:0]
	*out = *sol
	out.Presolve = p.Stats
	if p.identity {
		if len(sol.Values) > 0 { // else out has sol's nil, or the empty point of a model without variables
			out.Values = append(dst, sol.Values...)
		}
		return out
	}
	switch sol.Status {
	case StatusOptimal, StatusFeasible:
		if cap(dst) < p.nOrig {
			dst = make([]float64, 0, p.nOrig)
		}
		out.Values = p.liftInto(dst[:p.nOrig], sol.Values)
		out.Objective = sol.Objective + p.objConst
		out.Bound = sol.Bound + p.objConst
	case StatusNoSolution:
		out.Bound = sol.Bound + p.objConst
	}
	return out
}

// restrictInto maps a full-space point into the reduced space by dropping the
// fixed columns, into dst's memory when dst is large enough: the tree search
// maps a heuristic candidate at every node. Nil in, nil out; a length mismatch
// also yields nil (the caller's seed is silently unusable, matching Solve's
// infeasible-seed policy). For any point feasible in the original model the
// restriction is feasible in the reduced model, so warm-start seeds survive
// presolve.
func (p *Presolved) restrictInto(dst, x []float64) []float64 {
	if x == nil {
		return nil
	}
	if p.identity {
		return x
	}
	if len(x) != p.nOrig {
		return nil
	}
	if cap(dst) < len(p.keep) {
		dst = make([]float64, len(p.keep))
	}
	dst = dst[:len(p.keep)]
	for ri, oi := range p.keep {
		dst[ri] = x[oi]
	}
	return dst
}

// liftInto maps a reduced-space point of a non-identity reduction to the full
// space, into dst, which has one entry per original variable; every entry is
// written, fixed columns with their values.
func (p *Presolved) liftInto(dst, x []float64) []float64 {
	for i := range dst {
		dst[i] = 0
		if p.isFixed[i] {
			dst[i] = p.fixedVal[i]
		}
	}
	for ri, oi := range p.keep {
		if ri < len(x) {
			dst[oi] = x[ri]
		}
	}
	return dst
}

// psRow is a working constraint. GE rows are normalized to LE at load
// (coefficients and RHS negated) so the reducers only see LE and EQ; zero
// coefficients are dropped. Term order is preserved from the input model —
// AddConstraint already merges duplicate variables, and every reducer here
// is order-independent (dedup compares rows in emission order, which is how
// per-slice expansion duplicates actually appear). A row that needs neither
// reads the input constraint's own terms (shared) until a fixed column is
// substituted out of it, which copies them first: the input model is never
// written.
type psRow struct {
	terms  []Term
	rhs    float64
	hash   uint64 // cached rowHash; 0 = stale (recompute)
	src    int32  // index of the input constraint (its name is read at build)
	op     Op
	dead   bool
	shared bool // terms are the input constraint's
}

// presolver is the working state of one reduction pass. Its arrays come from
// the workspace's slabs; the struct itself lives in the workspace so the
// dedup map and clique scratch carry over from solve to solve.
type presolver struct {
	ws     *Workspace
	m      *Model
	lb, ub []float64
	rows   []psRow
	fixed  []bool
	fixVal []float64

	// scratch reused across rounds
	inEQ, up, down []bool         // dualityFix column flags
	dedupSeen      map[uint64]int // dedupRows hash -> first row index
	cliqueRows     []litRow       // mergeCliques candidate rows
	cliqueLits     []int          // mergeCliques flat literal storage

	stats      PresolveStats
	infeasible bool
	changed    bool // a reduction fired this round
	touched    bool // any reduction fired at all (identity fast-path guard)
	pendingFix bool // columns fixed since the last substitution pass
}

func (p *presolver) mark() { p.changed = true; p.touched = true }

func (p *presolver) dropRow(r *psRow) {
	r.dead = true
	p.stats.RowsDropped++
	p.mark()
}

// Presolve reduces the model. The input model is never modified; when no
// reduction applies the returned Presolved aliases it directly, and when no
// column is fixed the reduced model shares its term arrays.
func Presolve(m *Model) *Presolved {
	return new(Workspace).presolve(m)
}

// presolve is Presolve on the workspace's memory: the result, its header and
// the reduced model included, is only valid until the workspace is rewound.
func (w *Workspace) presolve(m *Model) *Presolved {
	start := time.Now()
	p := w.newPresolver(m)
	for round := 0; round < maxPresolveRounds && !p.infeasible; round++ {
		p.changed = false
		p.stats.Rounds++
		p.substituteFixed()
		if p.infeasible {
			break
		}
		p.reduceRows()
		if p.infeasible {
			break
		}
		// Dedup and clique domination are idempotent: when nothing has
		// changed since they last ran, re-running finds nothing.
		if round == 0 || p.changed {
			p.dedupRows()
			if p.infeasible {
				break
			}
			p.mergeCliques()
		}
		p.dualityFix()
		if !p.changed {
			break
		}
	}
	if !p.infeasible {
		// Flush fixes from the final round into the surviving rows.
		p.substituteFixed()
	}
	out := p.build()
	out.Stats.Duration = time.Since(start)
	return out
}

func (w *Workspace) newPresolver(m *Model) *presolver {
	n := len(m.Vars)
	p := &w.ps
	fl, bl := w.floats.take(3*n), w.bools.take(4*n)
	*p = presolver{
		ws:     w,
		m:      m,
		lb:     fl[:n:n],
		ub:     fl[n : 2*n : 2*n],
		fixVal: fl[2*n:],
		fixed:  bl[:n:n],
		inEQ:   bl[n : 2*n : 2*n],
		up:     bl[2*n : 3*n : 3*n],
		down:   bl[3*n:],

		dedupSeen:  p.dedupSeen,
		cliqueRows: p.cliqueRows,
		cliqueLits: p.cliqueLits,
	}
	for i, v := range m.Vars {
		lb, ub := v.Lb, v.Ub
		if v.Type != Continuous {
			// Integral bounds: fractional input bounds round inward.
			if r := math.Ceil(lb - intTol); r > lb+1e-9 {
				lb = r
				p.touched = true
			}
			if r := math.Floor(ub + intTol); r < ub-1e-9 {
				ub = r
				p.touched = true
			}
		}
		p.lb[i], p.ub[i] = lb, ub
	}
	// Columns the input model already pins (lb == ub) substitute out in the
	// first round like any other fixed column.
	for i := range p.lb {
		p.afterBound(i)
		if p.infeasible {
			return p
		}
	}
	p.rows = w.rows.take(len(m.Cons))
	for ci := range m.Cons {
		c := &m.Cons[ci]
		r := &p.rows[ci]
		*r = psRow{terms: c.Terms[:len(c.Terms):len(c.Terms)], rhs: c.RHS, src: int32(ci), op: c.Op, shared: true}
		neg := c.Op == GE
		if !neg && !slices.ContainsFunc(c.Terms, func(t Term) bool { return t.Coef == 0 }) {
			continue
		}
		if neg {
			r.rhs, r.op = -r.rhs, LE
		}
		terms := w.terms.take(len(c.Terms))[:0]
		for _, t := range c.Terms {
			if t.Coef == 0 {
				continue
			}
			if neg {
				t.Coef = -t.Coef
			}
			terms = append(terms, t)
		}
		r.terms, r.shared = terms, false
	}
	return p
}

// fixVar fixes variable v to x and records it for postsolve.
func (p *presolver) fixVar(v int, x float64) {
	if p.fixed[v] {
		if math.Abs(p.fixVal[v]-x) > psTol {
			p.infeasible = true
		}
		return
	}
	if x < p.lb[v]-psTol || x > p.ub[v]+psTol {
		p.infeasible = true
		return
	}
	p.fixed[v] = true
	p.fixVal[v] = x
	p.lb[v], p.ub[v] = x, x
	p.stats.VarsFixed++
	p.pendingFix = true
	p.mark()
}

// afterBound checks a variable's bounds after a tightening: crossed bounds
// beyond tolerance are infeasible; bounds that meet fix the variable.
func (p *presolver) afterBound(v int) {
	if p.lb[v] > p.ub[v]+psTol {
		p.infeasible = true
		return
	}
	if p.m.Vars[v].Type != Continuous {
		if p.ub[v] <= p.lb[v]+0.5 { // integral bounds: equal
			p.fixVar(v, p.lb[v])
		}
		return
	}
	if p.ub[v]-p.lb[v] <= 1e-12 {
		p.fixVar(v, (p.lb[v]+p.ub[v])/2)
	}
}

// tightenUb lowers v's upper bound to b if that is a real improvement.
func (p *presolver) tightenUb(v int, b float64) {
	if p.fixed[v] {
		if p.fixVal[v] > b+psTol {
			p.infeasible = true
		}
		return
	}
	if p.m.Vars[v].Type != Continuous {
		b = math.Floor(b + intTol)
	}
	if b >= p.ub[v]-1e-9 {
		return
	}
	p.ub[v] = b
	p.mark()
	p.afterBound(v)
}

// tightenLb raises v's lower bound to b if that is a real improvement.
func (p *presolver) tightenLb(v int, b float64) {
	if p.fixed[v] {
		if p.fixVal[v] < b-psTol {
			p.infeasible = true
		}
		return
	}
	if p.m.Vars[v].Type != Continuous {
		b = math.Ceil(b - intTol)
	}
	if b <= p.lb[v]+1e-9 {
		return
	}
	p.lb[v] = b
	p.mark()
	p.afterBound(v)
}

// substituteFixed removes fixed columns from every live row, folding their
// contribution into the RHS. Rows left empty are checked and dropped. A
// no-op (and free) when no column was fixed since the last pass.
func (p *presolver) substituteFixed() {
	if !p.pendingFix {
		return
	}
	p.pendingFix = false
	for ri := range p.rows {
		r := &p.rows[ri]
		if r.dead {
			continue
		}
		hasFixed := false
		for _, t := range r.terms {
			if p.fixed[t.Var] {
				hasFixed = true
				break
			}
		}
		if hasFixed {
			out := r.terms[:0]
			if r.shared {
				out, r.shared = p.ws.terms.take(len(r.terms))[:0], false
			}
			for _, t := range r.terms {
				if p.fixed[t.Var] {
					r.rhs -= t.Coef * p.fixVal[t.Var]
				} else {
					out = append(out, t)
				}
			}
			r.terms = out
			r.hash = 0 // terms changed; cached fingerprint is stale
			p.mark()
		}
		if len(r.terms) == 0 {
			switch r.op {
			case LE:
				if r.rhs < -psTol {
					p.infeasible = true
					return
				}
			case EQ:
				if math.Abs(r.rhs) > psTol {
					p.infeasible = true
					return
				}
			}
			p.dropRow(r)
		}
	}
}

// reduceRows converts every live one-term row into a variable bound.
func (p *presolver) reduceRows() {
	for ri := range p.rows {
		r := &p.rows[ri]
		if r.dead || len(r.terms) != 1 {
			continue
		}
		p.singletonRow(r)
		if p.infeasible {
			return
		}
	}
}

// singletonRow converts a one-term row into a variable bound and drops it.
func (p *presolver) singletonRow(r *psRow) {
	t := r.terms[0]
	v := int(t.Var)
	b := r.rhs / t.Coef
	switch r.op {
	case LE:
		if t.Coef > 0 {
			p.tightenUb(v, b)
		} else {
			p.tightenLb(v, b)
		}
	case EQ:
		if p.m.Vars[v].Type != Continuous && math.Abs(b-math.Round(b)) > intTol {
			p.infeasible = true
			return
		}
		p.tightenUb(v, b)
		if p.infeasible {
			return
		}
		p.tightenLb(v, b)
	}
	if p.infeasible {
		return
	}
	p.dropRow(r)
}

// dedupRows drops rows with identical operators and term vectors. Duplicate
// ≤-rows keep the smallest RHS; duplicate =-rows with different RHS are an
// infeasibility. Per-slice capacity expansion emits many identical rows when
// consecutive slices see the same demand set, so this fires often on
// compiled models. Rows are hashed without allocating and verified
// term-by-term on a hash hit; a verification miss (hash collision with a
// different row) just skips the dedup for that row.
func (p *presolver) dedupRows() {
	if p.dedupSeen == nil {
		p.dedupSeen = make(map[uint64]int, len(p.rows))
	} else {
		clear(p.dedupSeen)
	}
	for ri := range p.rows {
		r := &p.rows[ri]
		if r.dead {
			continue
		}
		h := r.hash
		if h == 0 {
			h = rowHash(r)
			r.hash = h
		}
		if fi, dup := p.dedupSeen[h]; dup {
			first := &p.rows[fi]
			if first.op == r.op && sameTerms(first.terms, r.terms) {
				switch r.op {
				case LE:
					if r.rhs < first.rhs {
						first.rhs = r.rhs
					}
				case EQ:
					if math.Abs(r.rhs-first.rhs) > psTol {
						p.infeasible = true
						return
					}
				}
				p.dropRow(r)
			}
			continue
		}
		p.dedupSeen[h] = ri
	}
}

// rowHash mixes the row's operator and term vector into a 64-bit fingerprint
// (splitmix64-style finalization per word). Collisions are tolerable: callers
// verify term-by-term before acting on a match. Never returns 0, so 0 can
// mark a stale cache entry.
func rowHash(r *psRow) uint64 {
	h := uint64(r.op) + 0x9e3779b97f4a7c15
	for _, t := range r.terms {
		h = mix64(h, uint64(t.Var))
		h = mix64(h, math.Float64bits(t.Coef))
	}
	if h == 0 {
		h = 1
	}
	return h
}

func mix64(h, v uint64) uint64 {
	v += h
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// sameTerms reports whether two term vectors are identical.
func sameTerms(a, b []Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maxCliqueRows caps the set-packing rows considered by the quadratic
// domination check; compiled models stay far below it.
const maxCliqueRows = 1024

// mergeCliques drops set-packing rows implied by a stronger packing row.
// A row Σ pos − Σ neg ≤ 1 − |neg| over binary variables says "at most one of
// these literals is true" (a clique in the conflict graph); any such row
// whose literal set is a subset of another clique's is implied by it. The
// compiler's choose-≤-1 rows over a MAX job's options have exactly this
// shape, and so does a supply row over width-1 options of one node.
func (p *presolver) mergeCliques() {
	cliques := p.cliqueRows[:0]
	lits := p.cliqueLits[:0]
	for ri := range p.rows {
		r := &p.rows[ri]
		if r.dead || r.op != LE || len(r.terms) < 2 {
			continue
		}
		neg := 0
		ok := true
		for _, t := range r.terms {
			v := int(t.Var)
			if p.m.Vars[v].Type == Continuous || p.lb[v] != 0 || p.ub[v] != 1 {
				ok = false
				break
			}
			switch t.Coef {
			case 1:
			case -1:
				neg++
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if !ok || math.Abs(r.rhs-(1-float64(neg))) > psTol {
			continue
		}
		lo := len(lits)
		for _, t := range r.terms {
			l := int(t.Var) * 2
			if t.Coef < 0 {
				l++ // complemented literal
			}
			lits = append(lits, l)
		}
		slices.Sort(lits[lo:])
		cliques = append(cliques, litRow{ri: ri, lo: lo, hi: len(lits)})
		if len(cliques) >= maxCliqueRows {
			break
		}
	}
	p.cliqueRows, p.cliqueLits = cliques, lits
	if len(cliques) < 2 {
		return
	}
	slices.SortFunc(cliques, func(a, b litRow) int {
		return cmp.Or(cmp.Compare(a.hi-a.lo, b.hi-b.lo), cmp.Compare(a.ri, b.ri))
	})
	for i := range cliques {
		if p.rows[cliques[i].ri].dead {
			continue
		}
		for j := i + 1; j < len(cliques); j++ {
			if p.rows[cliques[j].ri].dead {
				continue
			}
			if subsetInts(lits[cliques[i].lo:cliques[i].hi], lits[cliques[j].lo:cliques[j].hi]) {
				p.dropRow(&p.rows[cliques[i].ri])
				p.stats.CliquesMerged++
				break
			}
		}
	}
}

// subsetInts reports whether sorted slice a is a subset of sorted slice b.
func subsetInts(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// dualityFix fixes columns whose objective and constraint coefficients all
// pull toward the same bound. Under maximize, a variable with non-negative
// objective that appears in no equality row and never increases a ≤-row's
// activity when raised can sit at its upper bound in some optimal solution;
// the mirror cases follow. Columns appearing in no row at all ("empty
// columns") qualify trivially and are removed here. Raising (or lowering)
// such a variable never leaves the feasible region, so restricted feasible
// points stay feasible.
func (p *presolver) dualityFix() {
	n := len(p.m.Vars)
	for v := 0; v < n; v++ {
		p.inEQ[v], p.up[v], p.down[v] = false, false, false
	}
	for ri := range p.rows {
		r := &p.rows[ri]
		if r.dead {
			continue
		}
		for _, t := range r.terms {
			v := int(t.Var)
			if r.op == EQ {
				p.inEQ[v] = true
			} else if t.Coef > 0 {
				p.up[v] = true
			} else {
				p.down[v] = true
			}
		}
	}
	max := p.m.Sense == Maximize
	for v := 0; v < n; v++ {
		if p.fixed[v] || p.inEQ[v] {
			continue
		}
		obj := p.m.Vars[v].Obj
		var toUb, toLb bool
		if max {
			toUb = obj >= 0 && !p.up[v] && !math.IsInf(p.ub[v], 1)
			toLb = !toUb && obj <= 0 && !p.down[v] && !math.IsInf(p.lb[v], -1)
		} else {
			toLb = obj >= 0 && !p.down[v] && !math.IsInf(p.lb[v], -1)
			toUb = !toLb && obj <= 0 && !p.up[v] && !math.IsInf(p.ub[v], 1)
		}
		switch {
		case toUb:
			p.fixVar(v, p.ub[v])
		case toLb:
			p.fixVar(v, p.lb[v])
		}
		if p.infeasible {
			return
		}
	}
}

// build assembles the Presolved result from the terminal presolver state, in
// the workspace's header. When no column was fixed the reduced model is in the
// input's variable space: its rows are the working rows as they stand, on the
// input's own term arrays wherever presolve did not write, and its columns are
// the input's unless a bound moved. Otherwise it is renumbered.
func (p *presolver) build() *Presolved {
	n := len(p.m.Vars)
	w := p.ws
	out := &w.pre
	switch {
	case p.infeasible:
		*out = Presolved{Stats: p.stats, Infeasible: true, nOrig: n}
		return out
	case !p.touched:
		*out = Presolved{Model: p.m, Stats: p.stats, identity: true, nOrig: n}
		return out
	case p.stats.VarsFixed > 0:
		return p.renumbered()
	}
	rm := p.reducedModel()
	rm.Vars = p.m.Vars
	for i, v := range p.m.Vars {
		if p.lb[i] != v.Lb || p.ub[i] != v.Ub {
			rm.Vars = w.vars.take(n)
			for i, v := range p.m.Vars {
				v.Lb, v.Ub = p.lb[i], p.ub[i]
				rm.Vars[i] = v
			}
			break
		}
	}
	for ri := range p.rows {
		if r := &p.rows[ri]; !r.dead {
			rm.Cons = append(rm.Cons, Constraint{Name: p.m.Cons[r.src].Name, Terms: r.terms, Op: r.op, RHS: r.rhs})
		}
	}
	*out = Presolved{Model: rm, Stats: p.stats, identity: true, nOrig: n}
	return out
}

// reducedModel takes the reduced model's header, with room for the surviving
// rows, from the workspace.
func (p *presolver) reducedModel() *Model {
	live := 0
	for ri := range p.rows {
		if !p.rows[ri].dead {
			live++
		}
	}
	rm := &p.ws.models.take(1)[0]
	rm.Sense, rm.Cons = p.m.Sense, p.ws.cons.take(live)[:0]
	return rm
}

// renumbered is build for a reduction that fixed columns: the surviving
// columns are numbered anew and every surviving row is copied onto the new
// numbering.
func (p *presolver) renumbered() *Presolved {
	n := len(p.m.Vars)
	w := p.ws
	newID := w.ints.take(n)
	keep := w.ints.take(n)[:0]
	objConst := 0.0
	for i := 0; i < n; i++ {
		if p.fixed[i] {
			newID[i] = -1
			objConst += p.m.Vars[i].Obj * p.fixVal[i]
			continue
		}
		newID[i] = len(keep)
		keep = append(keep, i)
	}
	// Assemble the reduced model directly with pre-sized slices — terms are
	// already merged and zero-free, so AddVar/AddConstraint would only add
	// re-grow and re-merge overhead.
	rm := p.reducedModel()
	rm.Vars = w.vars.take(len(keep))
	for ri, oi := range keep {
		v := p.m.Vars[oi]
		v.Lb, v.Ub = p.lb[oi], p.ub[oi]
		rm.Vars[ri] = v
	}
	liveTerms := 0
	for ri := range p.rows {
		if !p.rows[ri].dead {
			liveTerms += len(p.rows[ri].terms)
		}
	}
	flat := w.terms.take(liveTerms)[:0]
	for ri := range p.rows {
		r := &p.rows[ri]
		if r.dead {
			continue
		}
		lo := len(flat)
		for _, t := range r.terms {
			flat = append(flat, Term{Var: VarID(newID[t.Var]), Coef: t.Coef})
		}
		rm.Cons = append(rm.Cons, Constraint{Name: p.m.Cons[r.src].Name, Terms: flat[lo:len(flat):len(flat)], Op: r.op, RHS: r.rhs})
	}
	w.pre = Presolved{
		Model:    rm,
		Stats:    p.stats,
		nOrig:    n,
		objConst: objConst,
		isFixed:  p.fixed,
		fixedVal: p.fixVal,
		keep:     keep,
	}
	return &w.pre
}
