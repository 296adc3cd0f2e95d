package milp

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// This file implements the presolve (model-reduction) pass that runs between
// compilation and branch-and-bound. It only ever drops rows, in one pass of
// each of two reductions:
//
//   - dedup of identical rows;
//   - clique domination: set-packing rows over binary literals that are
//     subsets of another packing row are implied by it and dropped.
//
// Dropping a row creates no duplicate and no new domination, so one pass of
// each is their fixpoint (below mergeCliques' cap on candidate rows). Presolve never fixes, tightens or renumbers a column:
// the reduced model is over the input's own variables, so a solution of it is a
// solution of the input, warm-start seeds and heuristic candidates need no
// mapping, and nothing is lifted back. On the scheduler's traffic column fixing
// only ever fired on models with no rows at all, which the LP answers at the
// root (docs/SOLVER.md, Presolve).

// psTol is the presolve-local absolute tolerance for declaring two equality
// rows in conflict (and hence the model infeasible) and for recognising a
// packing row's right-hand side. It is deliberately tighter than the 1e-6
// feasibility tolerance used by IsFeasible so presolve never rejects a model
// the solver would accept.
const psTol = 1e-7

// PresolveStats reports what the presolve pass did to a model.
type PresolveStats struct {
	RowsDropped   int // rows eliminated (duplicate or clique-implied)
	CliquesMerged int // set-packing rows dropped as subsets of a stronger clique (also counted in RowsDropped)
	Duration      time.Duration
}

// add folds o into s (used when merging decomposed part solutions and when
// accumulating scheduler-lifetime telemetry).
func (s *PresolveStats) add(o *PresolveStats) {
	s.RowsDropped += o.RowsDropped
	s.CliquesMerged += o.CliquesMerged
	s.Duration += o.Duration
}

// Presolved is the outcome of reducing a model.
type Presolved struct {
	// Model is the reduced model to hand to the solver, over the input's
	// variables. When no row dropped it is the input itself; otherwise it has
	// the input's columns and the surviving rows, which read the input's own
	// term arrays except where a row was normalized (build). Neither model may
	// be written while the Presolved is in use.
	Model *Model
	// Stats records what the pass did.
	Stats PresolveStats
	// Infeasible reports that presolve proved the model has no feasible
	// point (two equality rows over the same terms ask for different
	// right-hand sides); Model is nil in that case.
	Infeasible bool
}

// psRow is a working constraint. Zero coefficients are dropped at load, on a
// copy; every other row reads the input constraint's own terms, and nothing writes a row's terms after load,
// so the input model is never written. Term order is preserved from the input
// model — AddConstraint already merges duplicate variables, and both reducers
// are order-independent (dedup compares rows in emission order, which is how
// per-slice expansion duplicates actually appear). Row i is the input's
// constraint i.
type psRow struct {
	terms []Term
	rhs   float64
	op    Op
	dead  bool
}

// presolver is the working state of one reduction pass. Its rows come from the
// workspace's slabs; the struct itself lives in the workspace so the dedup map
// and clique scratch carry over from solve to solve.
type presolver struct {
	ws   *Workspace
	m    *Model
	rows []psRow

	dedupSeen  map[uint64]int // dedupRows hash -> first row index
	cliqueRows []litRow       // mergeCliques candidate rows
	cliqueLits []int          // mergeCliques flat literal storage

	stats      PresolveStats
	infeasible bool
}

func (p *presolver) dropRow(r *psRow) {
	r.dead = true
	p.stats.RowsDropped++
}

// Presolve reduces the model. The input model is never modified; when no
// reduction applies the returned Presolved aliases it directly, and otherwise
// the reduced model shares its columns and term arrays.
func Presolve(m *Model) *Presolved {
	return new(Workspace).presolve(m)
}

// presolve is Presolve on the workspace's memory: the result, its header and
// the reduced model included, is only valid until the workspace is rewound.
func (w *Workspace) presolve(m *Model) *Presolved {
	start := time.Now()
	p := w.newPresolver(m)
	p.dedupRows()
	if !p.infeasible {
		p.mergeCliques()
	}
	out := p.build()
	out.Stats.Duration = time.Since(start)
	return out
}

func (w *Workspace) newPresolver(m *Model) *presolver {
	p := &w.ps
	*p = presolver{
		ws:         w,
		m:          m,
		rows:       w.rows.take(len(m.Cons)),
		dedupSeen:  p.dedupSeen,
		cliqueRows: p.cliqueRows,
		cliqueLits: p.cliqueLits,
	}
	for ci := range m.Cons {
		c := &m.Cons[ci]
		r := &p.rows[ci]
		*r = psRow{terms: c.Terms[:len(c.Terms):len(c.Terms)], rhs: c.RHS, op: c.Op}
		if !slices.ContainsFunc(c.Terms, func(t Term) bool { return t.Coef == 0 }) {
			continue
		}
		terms := w.terms.take(len(c.Terms))[:0]
		for _, t := range c.Terms {
			if t.Coef != 0 {
				terms = append(terms, t)
			}
		}
		r.terms = terms
	}
	return p
}

// dedupRows drops rows with identical operators and term vectors. Duplicate
// ≤-rows keep the smallest RHS; duplicate =-rows with different RHS are an
// infeasibility, the one presolve proves. The compiler emits no repeated
// supply row, so on compiled models this rarely fires. Rows are hashed
// without allocating and verified term-by-term on a hash hit; a verification
// miss (hash collision with a different row) just skips the dedup for that
// row. It runs first, on rows none of which is dead yet.
func (p *presolver) dedupRows() {
	if p.dedupSeen == nil {
		p.dedupSeen = make(map[uint64]int, len(p.rows))
	} else {
		clear(p.dedupSeen)
	}
	for ri := range p.rows {
		r := &p.rows[ri]
		h := rowHash(r)
		if fi, dup := p.dedupSeen[h]; dup {
			first := &p.rows[fi]
			if first.op == r.op && slices.Equal(first.terms, r.terms) {
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
// verify term-by-term before acting on a match.
func rowHash(r *psRow) uint64 {
	h := uint64(r.op) + 0x9e3779b97f4a7c15
	for _, t := range r.terms {
		h = mix64(h, uint64(t.Var))
		h = mix64(h, math.Float64bits(t.Coef))
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
			if v := &p.m.Vars[t.Var]; v.Type == Continuous || v.Lb != 0 || v.Ub != 1 {
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

// build assembles the Presolved result in the workspace's header. When a row
// dropped, the reduced model is a new header over the input's columns and the
// live rows, each on the input's own term array unless load normalized it.
func (p *presolver) build() *Presolved {
	out := &p.ws.pre
	switch {
	case p.infeasible:
		*out = Presolved{Stats: p.stats, Infeasible: true}
		return out
	case p.stats.RowsDropped == 0:
		*out = Presolved{Model: p.m, Stats: p.stats}
		return out
	}
	rm := &p.ws.models.take(1)[0]
	rm.Vars = p.m.Vars
	rm.Cons = p.ws.cons.take(len(p.rows) - p.stats.RowsDropped)[:0]
	for ri := range p.rows {
		if r := &p.rows[ri]; !r.dead {
			rm.Cons = append(rm.Cons, Constraint{Terms: r.terms, Op: r.op, RHS: r.rhs})
		}
	}
	*out = Presolved{Model: rm, Stats: p.stats}
	return out
}
