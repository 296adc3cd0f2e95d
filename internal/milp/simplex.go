package milp

import (
	"errors"
	"math"
)

// lpStatus is the outcome of an LP solve.
type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
	lpIterLimit
	// lpStalled is internal to the warm-start path: the dual phase exceeded
	// its iteration budget and the caller must fall back to a cold solve.
	lpStalled
)

// Numerical tolerances for the simplex method.
const (
	feasTol  = 1e-7 // bound/constraint feasibility
	optTol   = 1e-7 // reduced-cost optimality
	pivotTol = 1e-9 // minimum acceptable pivot magnitude
	// warmTol bounds the reduced-cost violation tolerated when adopting a
	// parent basis for a dual-simplex restart; beyond it the snapshot is
	// treated as stale and the solve falls back to the cold path.
	warmTol = 1e-6
)

var errSingularBasis = errors.New("milp: singular basis during refactorization")

// LPStats aggregates LP-kernel telemetry across every relaxation solved
// during one Solve call: the root and the branch-and-bound node re-solves.
type LPStats struct {
	// Iterations counts simplex pivots, primal and dual phases combined.
	Iterations int64
	// Phase1 counts solves that needed a signed-artificial phase 1.
	Phase1 int
	// WarmHits counts node LPs re-solved dual-feasibly from a parent basis.
	WarmHits int
	// WarmFallbacks counts warm restarts abandoned for the cold path
	// (stale or corrupt snapshot, refactorization failure, dual-infeasible
	// start, or a stalled dual phase).
	WarmFallbacks int
	// ColdStarts counts LPs solved from scratch, including warm fallbacks.
	ColdStarts int
	// Factorizations counts basis refactorizations.
	Factorizations int64
	// EtaUpdates counts product-form eta updates absorbed by the LU engine
	// between refactorizations.
	EtaUpdates int64
	// UnstableFactors counts factorizations rejected for element growth and
	// repeated with strict partial pivoting, which the scratch keeps until
	// it is next bound.
	UnstableFactors int
	// Degenerate counts basis changes whose step is 0: a primal pivot whose
	// ratio test ends at 0, so no variable moves, or a dual one whose entering
	// reduced cost is 0. Such a pivot moves the basis and not the objective.
	Degenerate int64
}

// Add sums b's counters into a.
func (a *LPStats) Add(b *LPStats) {
	a.Iterations += b.Iterations
	a.Phase1 += b.Phase1
	a.WarmHits += b.WarmHits
	a.WarmFallbacks += b.WarmFallbacks
	a.ColdStarts += b.ColdStarts
	a.Factorizations += b.Factorizations
	a.EtaUpdates += b.EtaUpdates
	a.UnstableFactors += b.UnstableFactors
	a.Degenerate += b.Degenerate
}

// lp is a linear program in computational standard form:
//
//	minimize cᵀx  subject to  A·x = b,  lb ≤ x ≤ ub
//
// where c is the model's objective negated (the model maximizes) and the
// columns include one slack per original row (a·x + s = rhs, with slack
// bounds [0, ∞) for ≤ and [0, 0] for =). Artificial columns are appended during
// phase 1 when the all-slack basis is infeasible. The matrix is stored as
// flat compressed sparse columns so pricing, FTRAN, and refactorization walk
// contiguous arrays and skip zeros.
type lp struct {
	m, n     int
	colStart []int32 // column j occupies colRow/colVal[colStart[j]:colStart[j+1]]
	colRow   []int32
	colVal   []float64
	b        []float64
	c        []float64 // phase-2 objective: the model's, negated
	lb       []float64
	ub       []float64
	nvars    int // structural variable count (prefix of columns)
}

// newLP converts a Model into computational standard form on the workspace's
// slabs, into the workspace's one LP header. Branch-and-bound passes per-node
// copies of the bound arrays without rebuilding the matrix.
func (w *Workspace) newLP(model *Model) *lp {
	m := len(model.Cons)
	nv := len(model.Vars)
	n := nv + m
	p := &w.lp
	*p = lp{
		m:        m,
		n:        n,
		colStart: w.int32s.Take(n + 1),
		b:        w.floats.Take(m),
		c:        w.floats.Take(n),
		lb:       w.floats.Take(n),
		ub:       w.floats.Take(n),
		nvars:    nv,
	}
	for j, v := range model.Vars {
		p.c[j] = -v.Obj // minimize the negated objective
		p.lb[j] = v.Lb
		p.ub[j] = v.Ub
	}
	// Pass 1: per-column entry counts (structurals; slacks are singletons).
	nnz := 0
	for _, con := range model.Cons {
		for _, t := range con.Terms {
			if t.Coef != 0 {
				p.colStart[t.Var+1]++
				nnz++
			}
		}
	}
	for j := 0; j < nv; j++ {
		p.colStart[j+1] += p.colStart[j]
	}
	for i := 0; i < m; i++ {
		p.colStart[nv+i+1] = p.colStart[nv+i] + 1
	}
	p.colRow = w.int32s.Take(nnz + m)
	p.colVal = w.floats.Take(nnz + m)
	// Pass 2: fill, tracking the next free slot per column.
	next := w.int32s.Take(nv)
	for j := 0; j < nv; j++ {
		next[j] = p.colStart[j]
	}
	for i, con := range model.Cons {
		p.b[i] = con.RHS
		for _, t := range con.Terms {
			if t.Coef != 0 {
				k := next[t.Var]
				next[t.Var]++
				p.colRow[k] = int32(i)
				p.colVal[k] = t.Coef
			}
		}
		sj := nv + i
		k := p.colStart[sj]
		p.colRow[k] = int32(i)
		p.colVal[k] = 1
		switch con.Op {
		case LE:
			p.lb[sj], p.ub[sj] = 0, Inf
		case EQ:
			p.lb[sj], p.ub[sj] = 0, 0
		}
	}
	return p
}

// Nonbasic variable positions.
const (
	atLower byte = iota
	atUpper
	atFree // free variable resting at zero
	inBasis
)

// refactorInterval is the pivot count between periodic refactorizations, the
// drift-control backstop behind the engine's own eta and fill budgets.
const refactorInterval = 120

// simplexState is the reusable working state of the LP kernel: the tree
// search solves every node on one, so the buffers — including the basis
// engine's factors — are allocated once per search, not once per node. A
// state carries no result across solves (every solve re-initializes from its
// bounds or snapshot), only buffers and accumulated LPStats, so reusing one
// keeps repeated solves deterministic.
type simplexState struct {
	ws      *Workspace // whose slabs the buffers are cut from
	p       *lp
	lu      *luBasis  // the basis engine
	nTotal  int       // columns including phase-1 artificials
	artCoef []float64 // phase-1 artificial column coefs (±1); nil outside phase 1
	artBuf  []float64 // artCoef's storage
	cost    []float64
	basis   []int  // row -> column
	status  []byte // column -> position
	x       []float64
	y       []float64 // duals, maintained incrementally across pivots
	w       []float64 // FTRAN scratch
	rho     []float64 // BTRAN pivot-row scratch
	cb      []float64 // basic-cost gather scratch for computeDuals
	ratios  []float64 // ratio-test scratch
	rbuf    []float64 // residual scratch
	cand    []int32   // pricing candidate list (multiple pricing)

	// Devex reference weights: gamma prices nonbasic columns in the primal
	// (score d²/γ), dwt weights row infeasibilities in the dual (score
	// v²/δ). Both reset to the unit framework at phase entry and on every
	// refactorization.
	gamma []float64
	dwt   []float64

	lbFull, ubFull, costFull []float64 // phase-1 bound/cost buffers, cut at the first phase 1

	iter    int
	maxIter int
	bland   bool
	stall   int
	stats   LPStats
}

// bind makes s a solver state for p: every buffer is cut, zeroed, from w's
// slabs and the telemetry starts from zero, so a re-bound state behaves
// exactly like a newly allocated one, its basis engine back on threshold
// pivoting included. It sets every buffer (the phase-1 ones to nil, cut on
// first use): after w's rewind the previous solve's are memory the next one
// is handed again.
func (s *simplexState) bind(w *Workspace, p *lp) {
	m, n := p.m, p.n
	s.ws, s.p = w, p
	s.basis = w.ints.Take(m)
	s.status = w.bytes.Take(n + m)[:n]
	s.x = w.floats.Take(n + m)[:n]
	s.gamma = w.floats.Take(n + m)
	s.y, s.w, s.rho, s.cb = w.floats.Take(m), w.floats.Take(m), w.floats.Take(m), w.floats.Take(m)
	s.ratios, s.rbuf, s.dwt = w.floats.Take(m), w.floats.Take(m), w.floats.Take(m)
	s.cand = w.int32s.Take(n)[:0]
	s.artCoef, s.cost = nil, nil
	s.artBuf, s.lbFull, s.ubFull, s.costFull = nil, nil, nil, nil
	s.stats = LPStats{}
	if s.lu == nil {
		s.lu = new(luBasis)
	}
	s.lu.bind(w, p, &s.stats)
}

// begin resets per-solve state (buffers and stats survive). The solve's
// iteration cap is maxIter, or the default when that is lower or maxIter ≤ 0.
func (s *simplexState) begin(maxIter int) {
	p := s.p
	if lim := 200*(p.m+1) + 20000; maxIter <= 0 || maxIter > lim {
		maxIter = lim
	}
	s.iter = 0
	s.maxIter = maxIter
	s.nTotal = p.n
	s.artCoef = nil
	s.bland, s.stall = false, 0
	s.cand = s.cand[:0] // bounds differ per solve; stale candidates mislead
	s.status = s.status[:p.n]
	s.x = s.x[:p.n]
	s.resetDevex()
}

// resetDevex restores the unit reference framework for both Devex pricers.
func (s *simplexState) resetDevex() {
	for i := range s.gamma {
		s.gamma[i] = 1
	}
	for i := range s.dwt {
		s.dwt[i] = 1
	}
}

// solve runs a cold primal solve: quick-start from the all-slack basis when
// it is feasible, signed-artificial phase 1 otherwise.
func (s *simplexState) solve(lb, ub []float64, maxIter int) (lpStatus, []float64, error) {
	s.begin(maxIter)
	s.stats.ColdStarts++
	p := s.p
	for j := 0; j < p.n; j++ {
		switch {
		case !math.IsInf(lb[j], -1):
			s.x[j], s.status[j] = lb[j], atLower
		case !math.IsInf(ub[j], 1):
			s.x[j], s.status[j] = ub[j], atUpper
		default:
			s.x[j], s.status[j] = 0, atFree
		}
	}
	// Residuals of the rows with all columns at their resting points.
	resid := s.rbuf
	copy(resid, p.b)
	for j := 0; j < p.nvars; j++ {
		if xj := s.x[j]; xj != 0 {
			for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
				resid[p.colRow[k]] -= p.colVal[k] * xj
			}
		}
	}
	// Quick start: all-slack basis if feasible (always true for models the
	// STRL compiler emits, where the zero assignment is feasible).
	feasibleStart := true
	for i := 0; i < p.m; i++ {
		sj := p.nvars + i
		if resid[i] < lb[sj]-feasTol || resid[i] > ub[sj]+feasTol {
			feasibleStart = false
			break
		}
	}
	if feasibleStart {
		diag := s.w
		for i := 0; i < p.m; i++ {
			diag[i] = 1
		}
		s.lu.reset(diag)
		for i := 0; i < p.m; i++ {
			sj := p.nvars + i
			s.basis[i] = sj
			s.status[sj] = inBasis
			s.x[sj] = resid[i]
		}
		st, err := s.iterate(lb, ub, p.c)
		if err != nil {
			return lpIterLimit, nil, err
		}
		return st, s.x[:p.n], nil
	}

	// Phase 1: one signed artificial per row so each starts basic at |resid|.
	s.stats.Phase1++
	if s.lbFull == nil {
		fl, nm := &s.ws.floats, p.n+p.m
		s.lbFull, s.ubFull, s.costFull, s.artBuf = fl.Take(nm), fl.Take(nm), fl.Take(nm), fl.Take(p.m)
	}
	lbFull, ubFull, costP1 := s.lbFull, s.ubFull, s.costFull
	copy(lbFull, lb)
	copy(ubFull, ub)
	for j := range costP1 {
		costP1[j] = 0
	}
	s.artCoef = s.artBuf // every entry is written below
	s.x = s.x[:p.n+p.m]
	s.status = s.status[:p.n+p.m]
	for i := 0; i < p.m; i++ {
		aj := p.n + i
		coef := 1.0
		if resid[i] < 0 {
			coef = -1.0
		}
		s.artCoef[i] = coef
		lbFull[aj], ubFull[aj] = 0, Inf
		costP1[aj] = 1
		s.basis[i] = aj
		s.x[aj] = math.Abs(resid[i])
		s.status[aj] = inBasis
	}
	s.lu.reset(s.artCoef) // basis matrix diag(±1) is its own inverse
	s.nTotal = p.n + p.m
	st, err := s.iterate(lbFull, ubFull, costP1)
	if err != nil {
		return lpIterLimit, nil, err
	}
	if st == lpIterLimit {
		return lpIterLimit, nil, nil
	}
	p1obj := 0.0
	for j := p.n; j < s.nTotal; j++ {
		p1obj += s.x[j]
	}
	if p1obj > 1e-6 {
		return lpInfeasible, nil, nil
	}
	// Pin artificials to zero and optimize the real objective.
	for j := p.n; j < s.nTotal; j++ {
		ubFull[j] = 0
		if s.x[j] < 0 || s.x[j] > 0 {
			s.x[j] = clampVal(s.x[j], 0, 0)
		}
	}
	costP2 := costP1
	copy(costP2, p.c)
	for j := p.n; j < s.nTotal; j++ {
		costP2[j] = 0
	}
	s.bland, s.stall = false, 0
	st, err = s.iterate(lbFull, ubFull, costP2)
	if err != nil {
		return lpIterLimit, nil, err
	}
	return st, s.x[:p.n], nil
}

func clampVal(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// computeDuals recomputes y = cBᵀ·B⁻¹ from scratch with one BTRAN. Pivots
// keep y current with a rank-1 update; this full pass runs at phase entry and
// after every refactorization to contain drift.
func (s *simplexState) computeDuals() {
	cb := s.cb
	for i, bj := range s.basis {
		cb[i] = s.cost[bj]
	}
	s.lu.btranVec(cb, s.y)
}

// ftran computes w = B⁻¹·a_enter into s.w.
func (s *simplexState) ftran(enter int) {
	s.lu.ftranCol(enter, s.artCoef, s.w)
}

// improving is the primal pricing rule: a nonbasic column with status st and
// reduced cost d may enter when moving it off its bound lowers the objective
// by more than optTol, and dir is the way it moves — up from its lower bound,
// down from its upper bound, and against the sign of d when it is free.
func improving(st byte, d float64) (dir float64, ok bool) {
	if d < -optTol {
		return 1, st == atLower || st == atFree
	}
	if d > optTol {
		return -1, st == atUpper || st == atFree
	}
	return 0, false
}

// iterate runs primal simplex iterations to optimality under the given
// bounds and cost vector.
func (s *simplexState) iterate(lb, ub, cost []float64) (lpStatus, error) {
	s.cost = cost
	p := s.p
	m := p.m
	s.computeDuals()
	refactorCountdown := refactorInterval
	for {
		if s.iter >= s.maxIter {
			return lpIterLimit, nil
		}
		s.iter++
		s.stats.Iterations++
		if refactorCountdown--; refactorCountdown <= 0 || s.lu.needsRefactor() {
			if err := s.refactorize(); err != nil {
				return lpIterLimit, err
			}
			s.computeDuals()
			s.resetDevex()
			refactorCountdown = refactorInterval
		}
		// Pricing: Devex over a candidate list (multiple pricing) —
		// attractive columns found by the last full scan are re-priced first,
		// and a full scan runs only when the list runs dry. Optimality is
		// declared exclusively by an empty full scan, so the shortcut cannot
		// terminate early. Each eligible column scores d²/γ with its Devex
		// reference weight γ — an approximate steepest-edge measure that
		// favors pivots making real progress over merely steep reduced
		// costs. Bland's rule and phase 1 always scan in full.
		enter, dir := -1, 1.0
		var enterD float64
		best := 0.0
		y := s.y
		useCand := !s.bland && s.nTotal == p.n
		if useCand && len(s.cand) > 0 {
			keep := s.cand[:0]
			for _, j32 := range s.cand {
				j := int(j32)
				st := s.status[j]
				if st == inBasis || lb[j] == ub[j] {
					continue
				}
				d := cost[j]
				for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
					d -= y[p.colRow[k]] * p.colVal[k]
				}
				if dj, ok := improving(st, d); ok {
					keep = append(keep, j32)
					if score := d * d / s.gamma[j]; score > best {
						best, enter, dir, enterD = score, j, dj, d
					}
				}
			}
			s.cand = keep
		}
		if enter < 0 {
			if useCand {
				s.cand = s.cand[:0]
			}
			for j := 0; j < p.n; j++ {
				st := s.status[j]
				if st == inBasis || lb[j] == ub[j] {
					continue
				}
				d := cost[j]
				for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
					d -= y[p.colRow[k]] * p.colVal[k]
				}
				if dj, ok := improving(st, d); ok {
					if s.bland {
						enter, dir, enterD = j, dj, d
						break
					}
					if useCand {
						s.cand = append(s.cand, int32(j))
					}
					if score := d * d / s.gamma[j]; score > best {
						best, enter, dir, enterD = score, j, dj, d
					}
				}
			}
		}
		// Artificial columns participate only in phase 1; under Bland's rule
		// they are scanned only when no structural column qualified (their
		// indices are higher by construction).
		if s.nTotal > p.n && !(s.bland && enter >= 0) {
			for j := p.n; j < s.nTotal; j++ {
				st := s.status[j]
				if st == inBasis || lb[j] == ub[j] {
					continue
				}
				ai := j - p.n
				d := cost[j] - y[ai]*s.artCoef[ai]
				if dj, ok := improving(st, d); ok {
					if s.bland {
						enter, dir, enterD = j, dj, d
						break
					}
					if score := d * d / s.gamma[j]; score > best {
						best, enter, dir, enterD = score, j, dj, d
					}
				}
			}
		}
		if enter < 0 {
			return lpOptimal, nil
		}
		// Pivot column w = B⁻¹·a_enter.
		s.ftran(enter)
		w := s.w
		// Ratio test, pass 1: the smallest blocking step.
		tLim := math.Inf(1)
		if !math.IsInf(lb[enter], -1) && !math.IsInf(ub[enter], 1) {
			tLim = ub[enter] - lb[enter] // bound flip distance
		}
		for i := 0; i < m; i++ {
			s.ratios[i] = math.Inf(1)
			wi := dir * w[i]
			if math.Abs(wi) < pivotTol {
				continue
			}
			bj := s.basis[i]
			var t float64
			if wi > 0 {
				if math.IsInf(lb[bj], -1) {
					continue
				}
				t = (s.x[bj] - lb[bj]) / wi
			} else {
				if math.IsInf(ub[bj], 1) {
					continue
				}
				t = (s.x[bj] - ub[bj]) / wi
			}
			if t < 0 {
				t = 0
			}
			s.ratios[i] = t
			if t < tLim {
				tLim = t
			}
		}
		if math.IsInf(tLim, 1) {
			return lpUnbounded, nil
		}
		// Pass 2: among blocking rows near the limit, prefer the largest
		// pivot magnitude for numerical stability (Bland: lowest index).
		leave := -1
		bestPivot := 0.0
		for i := 0; i < m; i++ {
			if s.ratios[i] <= tLim+1e-9 && !math.IsInf(s.ratios[i], 1) {
				if s.bland {
					if leave < 0 || s.basis[i] < s.basis[leave] {
						leave = i
					}
				} else if math.Abs(w[i]) > bestPivot {
					bestPivot = math.Abs(w[i])
					leave = i
				}
			}
		}
		// Apply the step.
		s.x[enter] += dir * tLim
		for i := 0; i < m; i++ {
			if w[i] != 0 {
				s.x[s.basis[i]] -= dir * tLim * w[i]
			}
		}
		if leave < 0 {
			// Bound flip: no basis change, duals unchanged.
			if s.status[enter] == atLower {
				s.status[enter] = atUpper
				s.x[enter] = ub[enter]
			} else {
				s.status[enter] = atLower
				s.x[enter] = lb[enter]
			}
			s.noteProgress(tLim, best)
			continue
		}
		out := s.basis[leave]
		// Land the leaving variable exactly on the bound it hit.
		if dir*w[leave] > 0 {
			s.x[out] = lb[out]
			s.status[out] = atLower
		} else {
			s.x[out] = ub[out]
			s.status[out] = atUpper
		}
		s.basis[leave] = enter
		s.status[enter] = inBasis
		if tLim == 0 {
			s.stats.Degenerate++
		}
		pivW := w[leave]
		// rho = e_leaveᵀ·B_old⁻¹ feeds both the rank-1 dual update (row
		// leave of the new inverse is rho/pivot) and the Devex weight
		// updates, so it is taken before the engine absorbs the pivot.
		s.lu.btranRow(leave, s.rho)
		if !s.lu.update(leave, w) {
			// The engine refused the pivot (tiny pivot or spent budget):
			// refactorize from the updated basis instead.
			if err := s.refactorize(); err != nil {
				return lpIterLimit, err
			}
			s.computeDuals()
			s.resetDevex()
			refactorCountdown = refactorInterval
		} else {
			if enterD != 0 {
				f := enterD / pivW
				for k, v := range s.rho {
					if v != 0 {
						y[k] += f * v
					}
				}
			}
			s.devexPrimalUpdate(enter, out, pivW)
		}
		s.noteProgress(tLim, best)
	}
}

// devexPrimalUpdate refreshes the primal Devex reference weights after a
// pivot with entering column q and pivot element pivW, using the pre-pivot
// row rho still in s.rho. Updates are restricted to the candidate list (the
// only columns the pricer will score before the next full scan) plus the
// leaving variable, which re-enters the nonbasic set with the pivot-scaled
// reference weight.
func (s *simplexState) devexPrimalUpdate(enter, out int, pivW float64) {
	p := s.p
	gq := s.gamma[enter]
	r2 := pivW * pivW
	gOut := gq / r2
	if gOut < 1 {
		gOut = 1
	}
	s.gamma[out] = gOut
	if len(s.cand) == 0 {
		return
	}
	rho := s.rho
	scale := gq / r2
	for _, j32 := range s.cand {
		j := int(j32)
		if s.status[j] == inBasis {
			continue
		}
		alpha := 0.0
		for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
			alpha += rho[p.colRow[k]] * p.colVal[k]
		}
		if alpha == 0 {
			continue
		}
		if cand := alpha * alpha * scale; cand > s.gamma[j] {
			s.gamma[j] = cand
		}
	}
}

// noteProgress tracks degenerate stalls and arms Bland's anti-cycling rule.
func (s *simplexState) noteProgress(step, score float64) {
	if step*score > 1e-12 {
		s.stall = 0
		s.bland = false
		return
	}
	s.stall++
	if s.stall > 3*s.p.m+50 {
		s.bland = true
	}
}

// refactorize rebuilds the basis representation from the column data and
// refreshes basic variable values, containing drift from repeated
// product-form updates. If the LU engine rejects the basis as numerically
// unstable (element growth past its budget), it factors the same basis again
// with strict partial pivoting, stays strict until it is next bound, and the
// retry is counted. A strict factor checks no growth, so a second failure is
// a singular basis.
func (s *simplexState) refactorize() error {
	if err := s.lu.factor(s.basis, s.artCoef); err != nil {
		if err != errUnstableFactor {
			return err
		}
		s.lu.strict = true
		s.stats.UnstableFactors++
		if err := s.lu.factor(s.basis, s.artCoef); err != nil {
			return err
		}
	}
	// Refresh basic values: xB = B⁻¹·(b − N·xN).
	p := s.p
	resid := s.rbuf
	copy(resid, p.b)
	for j := 0; j < s.nTotal; j++ {
		if s.status[j] == inBasis {
			continue
		}
		xj := s.x[j]
		if xj == 0 {
			continue
		}
		if j < p.n {
			for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
				resid[p.colRow[k]] -= p.colVal[k] * xj
			}
		} else {
			resid[j-p.n] -= s.artCoef[j-p.n] * xj
		}
	}
	s.lu.ftranVec(resid, s.w)
	for i, bj := range s.basis {
		s.x[bj] = s.w[i]
	}
	return nil
}
