package milp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Numerical torture tests for the sparse LU basis engine: every operation is
// checked against a dense inverse of the same basis, in threshold and in
// strict pivoting, factorization must reject singular and numerically wild
// bases, the eta chain must stay exact through forced-refactorization churn,
// and an unstable factor must be retried strictly, on one basis and on whole
// solves.

func newLUBasis(p *lp, stats *LPStats) *luBasis {
	u := new(luBasis)
	u.bind(new(Workspace), p, stats)
	return u
}

// denseBasis is the reference the LU engine is checked against: an explicit
// row-major m×m basis inverse, rebuilt by Gauss-Jordan elimination with
// partial pivoting and updated in product form. O(m²) memory and work per
// pivot; the simplex itself never runs on it.
type denseBasis struct {
	p     *lp
	binv  []float64 // dense basis inverse, row-major, stride m
	stats *LPStats
}

func newDenseBasis(p *lp, stats *LPStats) *denseBasis {
	return &denseBasis{p: p, binv: make([]float64, p.m*p.m), stats: stats}
}

// factor recomputes the basis inverse from scratch; basis and art read as in
// luBasis.factor.
func (d *denseBasis) factor(basis []int, art []float64) error {
	p := d.p
	m := p.m
	w2 := 2 * m
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, w2)
		a[i][m+i] = 1
	}
	for r, j := range basis {
		if j < p.n {
			for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
				a[p.colRow[k]][r] = p.colVal[k]
			}
		} else {
			a[j-p.n][r] = art[j-p.n]
		}
	}
	for col := 0; col < m; col++ {
		piv := col
		for i := col + 1; i < m; i++ {
			if math.Abs(a[i][col]) > math.Abs(a[piv][col]) {
				piv = i
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return errSingularBasis
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for k := col; k < w2; k++ {
			a[col][k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col || a[i][col] == 0 {
				continue
			}
			f := a[i][col]
			for k := col; k < w2; k++ {
				a[i][k] -= f * a[col][k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(d.binv[i*m:i*m+m], a[i][m:])
	}
	d.stats.Factorizations++
	return nil
}

// ftranCol computes w = B⁻¹·a_j for LP column j (j ≥ p.n: artificial).
func (d *denseBasis) ftranCol(j int, art []float64, w []float64) {
	p := d.p
	m := p.m
	for i := 0; i < m; i++ {
		row := d.binv[i*m : i*m+m]
		if j >= p.n {
			w[i] = row[j-p.n] * art[j-p.n]
			continue
		}
		acc := 0.0
		for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
			acc += row[p.colRow[k]] * p.colVal[k]
		}
		w[i] = acc
	}
}

// btranVec computes y = Bᵀ⁻¹·v.
func (d *denseBasis) btranVec(v, y []float64) {
	m := d.p.m
	clear(y)
	for r := 0; r < m; r++ {
		for i, bv := range d.binv[r*m : r*m+m] {
			y[i] += v[r] * bv
		}
	}
}

// btranRow computes rho = e_rᵀ·B⁻¹.
func (d *denseBasis) btranRow(r int, rho []float64) {
	m := d.p.m
	copy(rho, d.binv[r*m:r*m+m])
}

// update applies the product-form inverse update for a pivot in row r, where
// w = B⁻¹·a_enter.
func (d *denseBasis) update(r int, w []float64) {
	m := d.p.m
	rowR := d.binv[r*m : r*m+m]
	inv := 1 / w[r]
	for k := range rowR {
		rowR[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r || w[i] == 0 {
			continue
		}
		rowI := d.binv[i*m : i*m+m]
		for k := range rowI {
			rowI[k] -= w[i] * rowR[k]
		}
	}
}

// tortureModel builds a random MILP whose LP relaxation has a mix of
// inequality senses (a ≥ row written as the ≤ row with both sides negated),
// ranged coefficients, and enough structure to produce non-trivial optimal
// bases.
func tortureModel(r *rand.Rand, nv, nc int) *Model {
	m := &Model{}
	for j := 0; j < nv; j++ {
		typ := Continuous
		if r.Intn(2) == 0 {
			typ = Binary
		}
		m.AddVar(typ, 0, 1+float64(r.Intn(4)), r.Float64()*10-2)
	}
	for i := 0; i < nc; i++ {
		var terms []Term
		for j := 0; j < nv; j++ {
			if r.Intn(3) == 0 {
				terms = append(terms, Term{Var: VarID(j), Coef: float64(r.Intn(9) - 4)})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(r.Intn(nv)), Coef: 1})
		}
		ge := r.Intn(4) == 0 // Σ terms ≥ −rhs
		rhs := float64(r.Intn(20))
		if ge {
			for k := range terms {
				terms[k].Coef = -terms[k].Coef
			}
		}
		m.AddConstraint(terms, LE, rhs)
	}
	return m
}

// solvedBasis runs a cold LP solve and returns the scratch if it ended on an
// all-structural optimal basis (nil otherwise).
func solvedBasis(p *lp) *simplexState {
	s := newScratch(p)
	st, _, err := s.solve(p.lb, p.ub, 0)
	if err != nil || st != lpOptimal {
		return nil
	}
	for _, j := range s.basis {
		if j >= p.n {
			return nil
		}
	}
	return s
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

// TestLUEngineMatchesDense factors the same solved bases with the LU engine,
// in threshold and in strict pivoting, and with the dense reference, checks
// that the strict factor is partial pivoting (no L multiplier beyond 1) and
// FTRAN/BTRAN agreement entry-for-entry, then drives a chain of simulated
// pivots through all three and re-checks after every eta update.
func TestLUEngineMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	bases := 0
	for it := 0; it < 60; it++ {
		model := tortureModel(r, 4+r.Intn(10), 3+r.Intn(8))
		p := newLP(model)
		s := solvedBasis(p)
		if s == nil {
			continue
		}
		bases++
		m := p.m
		var stLU, stD LPStats
		lus := []*luBasis{newLUBasis(p, &stLU), newLUBasis(p, &stLU)}
		lus[1].strict = true
		db := newDenseBasis(p, &stD)
		basis := append([]int(nil), s.basis...)
		for _, lu := range lus {
			if err := lu.factor(basis, nil); err != nil {
				t.Fatalf("it %d: LU factor (strict %v): %v", it, lu.strict, err)
			}
		}
		if err := db.factor(basis, nil); err != nil {
			t.Fatalf("it %d: dense factor: %v", it, err)
		}
		for _, l := range lus[1].lval {
			if math.Abs(l) > 1+1e-12 {
				t.Fatalf("it %d: strict factor has an L multiplier %g beyond 1: not partial pivoting", it, l)
			}
		}
		checkAgree := func(stage string) {
			wl, wd := make([]float64, m), make([]float64, m)
			vl, vd := make([]float64, m), make([]float64, m)
			for _, lu := range lus {
				for j := 0; j < p.n; j++ {
					lu.ftranCol(j, nil, wl)
					db.ftranCol(j, nil, wd)
					if d := maxDiff(wl, wd); d > 1e-7 {
						t.Fatalf("it %d %s (strict %v): ftranCol(%d) diverges by %g", it, stage, lu.strict, j, d)
					}
				}
				for i := 0; i < m; i++ {
					lu.btranRow(i, wl)
					db.btranRow(i, wd)
					if d := maxDiff(wl, wd); d > 1e-7 {
						t.Fatalf("it %d %s (strict %v): btranRow(%d) diverges by %g", it, stage, lu.strict, i, d)
					}
				}
				for i := range vl {
					vl[i] = r.Float64()*4 - 2
					vd[i] = vl[i]
				}
				lu.btranVec(vl, wl)
				db.btranVec(vd, wd)
				if d := maxDiff(wl, wd); d > 1e-7 {
					t.Fatalf("it %d %s (strict %v): btranVec diverges by %g", it, stage, lu.strict, d)
				}
			}
		}
		checkAgree("post-factor")
		// Simulated pivot chain: bring nonbasic columns in one at a time.
		w, ws := make([]float64, m), make([]float64, m)
		pivots := 0
		for j := 0; j < p.n && pivots < 8; j++ {
			inB := false
			for _, bj := range basis {
				if bj == j {
					inB = true
					break
				}
			}
			if inB {
				continue
			}
			lus[0].ftranCol(j, nil, w)
			slot := -1
			for i := 0; i < m; i++ {
				if math.Abs(w[i]) > 0.1 && (slot < 0 || math.Abs(w[i]) > math.Abs(w[slot])) {
					slot = i
				}
			}
			if slot < 0 {
				continue
			}
			if !lus[0].update(slot, w) {
				continue
			}
			lus[1].ftranCol(j, nil, ws)
			if !lus[1].update(slot, ws) {
				t.Fatalf("it %d: the strict engine refused a pivot the threshold one took", it)
			}
			db.update(slot, w)
			basis[slot] = j
			pivots++
			checkAgree("post-update")
		}
		if pivots > 0 && stLU.EtaUpdates == 0 {
			t.Fatalf("it %d: %d pivots but no eta updates counted", it, pivots)
		}
	}
	if bases < 20 {
		t.Fatalf("only %d usable bases generated; torture coverage too thin", bases)
	}
}

// TestLUSingularBasisRejected gives the LU engine, threshold and strict, and
// the dense reference a basis with two linearly dependent columns; each must
// report errSingularBasis and none may be counted as a factorization.
func TestLUSingularBasisRejected(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Continuous, 0, 10, 1)
	y := m.AddVar(Continuous, 0, 10, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 5)
	m.AddConstraint([]Term{{x, 2}, {y, 2}}, LE, 9)
	p := newLP(m)
	var st LPStats
	basis := []int{0, 1} // columns x and y: row-proportional, singular
	for _, strict := range []bool{false, true} {
		lu := newLUBasis(p, &st)
		lu.strict = strict
		if err := lu.factor(basis, nil); err != errSingularBasis {
			t.Fatalf("LU factor (strict %v) of singular basis: %v, want errSingularBasis", strict, err)
		}
	}
	if err := newDenseBasis(p, &st).factor(basis, nil); err != errSingularBasis {
		t.Fatalf("dense factor of singular basis: %v, want errSingularBasis", err)
	}
	if st.Factorizations != 0 {
		t.Fatalf("failed factorizations were counted as successes: %+v", st)
	}
}

// TestLUForcedRefactorization tightens the eta and fill budgets to their
// minima so nearly every pivot forces a refactorization mid-solve, and
// checks the solver still reaches the same optimum as a solve on the default
// budgets.
func TestLUForcedRefactorization(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var refactors int64
	for it := 0; it < 40; it++ {
		model := tortureModel(r, 6+r.Intn(8), 4+r.Intn(6))
		p := newLP(model)
		s := newScratch(p)
		s.lu.etaLimit = 1
		s.lu.fillLimit = 1
		st1, x1, err := s.solve(p.lb, p.ub, 0)
		if err != nil {
			t.Fatalf("it %d: forced-refactor solve: %v", it, err)
		}
		pd := newLP(model)
		st2, x2, err := newScratch(pd).solve(pd.lb, pd.ub, 0)
		if err != nil {
			t.Fatalf("it %d: default-budget solve: %v", it, err)
		}
		if st1 != st2 {
			t.Fatalf("it %d: status %v (forced refactor) vs %v (default budgets)", it, st1, st2)
		}
		if st1 != lpOptimal {
			continue
		}
		o1, o2 := model.ObjectiveValue(x1[:len(model.Vars)]), model.ObjectiveValue(x2[:len(model.Vars)])
		if math.Abs(o1-o2) > 1e-6*math.Max(1, math.Abs(o2)) {
			t.Fatalf("it %d: objective %.9f (forced refactor) != %.9f (default budgets)", it, o1, o2)
		}
		// An instance whose pivots were all bound flips legitimately never
		// refactorizes, but once two eta updates happened the budget of one
		// must have forced a factorization in between.
		if s.stats.EtaUpdates >= 2 && s.stats.Factorizations == 0 {
			t.Fatalf("it %d: %d eta updates under a budget of 1 without refactorizing: %+v",
				it, s.stats.EtaUpdates, s.stats)
		}
		refactors += s.stats.Factorizations
	}
	if refactors == 0 {
		t.Fatal("no instance forced a refactorization; torture coverage too thin")
	}
}

// TestLUEtaChainGrowth drives enough pivots through one engine to cross the
// eta budget and checks needsRefactor trips exactly at the limit.
func TestLUEtaChainGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for it := 0; it < 20; it++ {
		model := tortureModel(r, 12, 8)
		p := newLP(model)
		s := solvedBasis(p)
		if s == nil {
			continue
		}
		var st LPStats
		lu := newLUBasis(p, &st)
		lu.etaLimit = 3
		basis := append([]int(nil), s.basis...)
		if err := lu.factor(basis, nil); err != nil {
			continue
		}
		w := make([]float64, p.m)
		taken := 0
		for j := 0; j < p.n && taken < 3; j++ {
			inB := false
			for _, bj := range basis {
				if bj == j {
					inB = true
					break
				}
			}
			if inB {
				continue
			}
			lu.ftranCol(j, nil, w)
			slot := -1
			for i := 0; i < p.m; i++ {
				if math.Abs(w[i]) > 0.1 {
					slot = i
					break
				}
			}
			if slot < 0 || !lu.update(slot, w) {
				continue
			}
			basis[slot] = j
			taken++
			if taken < 3 && lu.needsRefactor() {
				t.Fatalf("it %d: needsRefactor tripped after %d/3 etas", it, taken)
			}
		}
		if taken == 3 && !lu.needsRefactor() {
			t.Fatalf("it %d: eta budget of 3 spent but needsRefactor is false", it)
		}
		if taken == 3 {
			// Refactorizing must clear the chain and the trigger.
			if err := lu.factor(basis, nil); err != nil {
				t.Fatalf("it %d: refactor after chain growth: %v", it, err)
			}
			if lu.needsRefactor() {
				t.Fatalf("it %d: needsRefactor still set after refactorization", it)
			}
			return
		}
	}
	t.Skip("no instance sustained 3 eta updates; generator too conservative")
}

// TestLUUnstableFactorRetriesStrict forces the growth limit to an absurdly
// small value so the next refactorization rejects the factor as unstable,
// and checks the scratch factors the same basis again in strict pivoting,
// counts the retry once, stays strict without re-checking growth, keeps
// solving to the optimum a default solve finds, and is back on threshold
// pivoting once re-bound.
func TestLUUnstableFactorRetriesStrict(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	unforced := maxGrowth
	defer func() { maxGrowth = unforced }()
	retried := 0
	for it := 0; it < 30; it++ {
		model := tortureModel(r, 6+r.Intn(6), 4+r.Intn(5))
		p := newLP(model)
		s := solvedBasis(p)
		if s == nil {
			continue
		}
		if s.lu.strict {
			t.Fatalf("it %d: a default solve left the engine strict", it)
		}
		maxGrowth = 1e-300 // every factor now exceeds the growth budget
		factors := s.stats.Factorizations
		err := s.refactorize()
		maxGrowth = unforced
		if err != nil {
			t.Fatalf("it %d: refactorize with strict retry: %v", it, err)
		}
		if !s.lu.strict || s.stats.UnstableFactors != 1 || s.stats.Factorizations != factors+1 {
			t.Fatalf("it %d: after an unstable factor strict=%v, stats %+v; want strict, one retry, one more factorization",
				it, s.lu.strict, s.stats)
		}
		if err := s.refactorize(); err != nil || s.stats.UnstableFactors != 1 {
			t.Fatalf("it %d: a strict refactorization checked growth again: err %v, %d retries", it, err, s.stats.UnstableFactors)
		}
		retried++
		// The strict scratch must still solve exactly.
		st, x, err := s.solve(p.lb, p.ub, 0)
		if err != nil || st != lpOptimal {
			t.Fatalf("it %d: post-retry solve: status %v err %v", it, st, err)
		}
		pd := newLP(model)
		_, xd, err := newScratch(pd).solve(pd.lb, pd.ub, 0)
		if err != nil {
			t.Fatalf("it %d: reference default solve: %v", it, err)
		}
		o1, o2 := model.ObjectiveValue(x[:len(model.Vars)]), model.ObjectiveValue(xd[:len(model.Vars)])
		if math.Abs(o1-o2) > 1e-6*math.Max(1, math.Abs(o2)) {
			t.Fatalf("it %d: post-retry objective %.9f != default %.9f", it, o1, o2)
		}
		s.bind(s.ws, p)
		if s.lu.strict || s.stats.UnstableFactors != 0 {
			t.Fatalf("it %d: re-binding kept strict=%v, %d retries", it, s.lu.strict, s.stats.UnstableFactors)
		}
	}
	if retried < 10 {
		t.Fatalf("only %d strict retries exercised; coverage too thin", retried)
	}
}

// TestSolveUnstableFactorsRetryStrict forces every factorization of whole
// Solve calls to read as unstable (a growth budget of zero) and checks each
// solve returns the status and objective of its unforced twin, with every LP
// scratch that factored retrying strictly and the unforced solve never.
func TestSolveUnstableFactorsRetryStrict(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	unforced := maxGrowth
	defer func() { maxGrowth = unforced }()
	models, retries := 0, 0
	for it := 0; models < 60; it++ {
		if it == 400 {
			t.Fatalf("only %d of %d models factored a basis; coverage too thin", models, it)
		}
		model := tortureModel(r, 8+r.Intn(10), 5+r.Intn(8))
		want, err := Solve(model, Options{})
		if err != nil {
			t.Fatalf("it %d: unforced solve: %v", it, err)
		}
		maxGrowth = 0
		got, err := Solve(model, Options{})
		maxGrowth = unforced
		if err != nil {
			t.Fatalf("it %d: forced solve: %v", it, err)
		}
		if want.LP.UnstableFactors != 0 {
			t.Fatalf("it %d: the unforced solve retried %d factorizations", it, want.LP.UnstableFactors)
		}
		if got.LP.Factorizations == 0 {
			continue // never factored: nothing was forced
		}
		models++
		if got.LP.UnstableFactors == 0 {
			t.Fatalf("it %d: %d factorizations under a zero growth budget and no retry", it, got.LP.Factorizations)
		}
		retries += got.LP.UnstableFactors
		if got.Status != want.Status {
			t.Fatalf("it %d: status %v forced, %v unforced", it, got.Status, want.Status)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("it %d: objective %.9f forced, %.9f unforced", it, got.Objective, want.Objective)
		}
	}
	t.Logf("%d models, %d strict retries", models, retries)
}

// TestLUSingularWarmBasisFallsBackCold restores a structurally valid snapshot
// whose basis matrix is singular (two duplicate columns of the model, not of
// the snapshot): restore accepts it, refactorization must fail, and the warm
// path must fall back cold and still return the optimum.
func TestLUSingularWarmBasisFallsBackCold(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Continuous, 0, 4, 1)
	y := m.AddVar(Continuous, 0, 4, 1) // same column as x in every row
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 6)
	m.AddConstraint([]Term{{x, 3}, {y, 3}}, LE, 12)
	p := newLP(m)
	s := newScratch(p)
	warm := &basisState{
		basis:  []int32{0, 1}, // x and y basic: structurally valid, singular
		status: []byte{inBasis, inBasis, atLower, atLower},
	}
	st, xv, err := s.solveFrom(warm, p.lb, p.ub, 0)
	if err != nil {
		t.Fatalf("solveFrom: %v", err)
	}
	if st != lpOptimal {
		t.Fatalf("status %v, want optimal via cold fallback", st)
	}
	if s.stats.WarmFallbacks != 1 || s.stats.WarmHits != 0 {
		t.Fatalf("warm accounting %+v, want exactly one fallback and no hits", s.stats)
	}
	if obj := m.ObjectiveValue(xv[:2]); math.Abs(obj-4) > 1e-6 {
		t.Fatalf("objective %.9f, want 4 (x+y capped by x+y<=6, 3x+3y<=12 -> 4)", obj)
	}
}

// luFuzzModel decodes a small model for FuzzLUMatchesDense: one to eight
// columns and one to six rows of coefficients in [−3, 3], zeros included, each
// row a ≤ or an = row.
func luFuzzModel(in *fuzzInput) *Model {
	m := &Model{}
	nv := 1 + in.next(8)
	for j := 0; j < nv; j++ {
		m.AddVar(Continuous, 0, 1+float64(in.next(4)), float64(in.next(7)-3))
	}
	for i, nc := 0, 1+in.next(6); i < nc; i++ {
		terms := make([]Term, nv)
		for j := range terms {
			terms[j] = Term{VarID(j), float64(in.next(7) - 3)}
		}
		m.AddConstraint(terms, []Op{LE, EQ}[in.next(2)], float64(in.next(9)))
	}
	return m
}

// FuzzLUMatchesDense checks the LU engine, in threshold and in strict
// pivoting, against the dense reference on the standard form newLP builds
// from a small decoded model. From the all-slack basis the input picks
// entering columns; each enters in the slot of its largest FTRAN entry (when
// that is at least 0.1) through an eta update in all three engines, and after
// every update FTRAN of every column, BTRAN of every row and BTRAN of a
// decoded vector agree within 1e-7 of their scale. Twice in the run the
// current basis is factored afresh, which must succeed wherever the dense
// reference's does (a threshold factor may instead report itself unstable,
// which its owner answers with a strict one), and is checked again.
func FuzzLUMatchesDense(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 2, 3, 1, 2, 0, 1, 6, 2, 0, 4, 5, 3, 1, 6, 2, 0, 1, 3, 4, 5, 0, 2, 1, 1, 3, 2, 4, 0})
	f.Add([]byte{7, 1, 2, 5, 0, 3, 6, 1, 4, 2, 5, 0, 6, 3, 1, 2, 4, 0, 5, 6, 1, 3, 2, 1, 0, 4, 6, 2, 3, 5, 1, 0, 2, 4, 6, 1, 3, 5, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		p := newLP(luFuzzModel(&in))
		m := p.m
		var stLU, stD LPStats
		lus := []*luBasis{newLUBasis(p, &stLU), newLUBasis(p, &stLU)}
		lus[1].strict = true
		db := newDenseBasis(p, &stD)
		basis := make([]int, m)
		for i := range basis {
			basis[i] = p.nvars + i // the slack of row i
		}
		live := []bool{true, true} // an engine whose threshold factor reported itself unstable sits out
		factor := func(stage string) {
			if err := db.factor(basis, nil); err != nil {
				t.Skipf("%s: the dense reference cannot factor basis %v: %v", stage, basis, err)
			}
			for k, lu := range lus {
				err := lu.factor(basis, nil)
				live[k] = err == nil
				if err != nil && (lu.strict || err != errUnstableFactor) {
					t.Fatalf("%s: LU factor (strict %v) of basis %v: %v, which the dense reference factors", stage, lu.strict, basis, err)
				}
			}
		}
		wl, wd := make([]float64, m), make([]float64, m)
		v, vc := make([]float64, m), make([]float64, m) // btranVec overwrites its input: each call gets a copy
		agree := func(stage string, what string, idx int) {
			scale := 1.0
			for _, x := range wd {
				scale = math.Max(scale, math.Abs(x))
			}
			if d := maxDiff(wl, wd); d > 1e-7*scale {
				t.Fatalf("%s: %s(%d) diverges by %g (scale %g), basis %v", stage, what, idx, d, scale, basis)
			}
		}
		check := func(stage string) {
			for i := range v {
				v[i] = float64(in.next(9) - 4)
			}
			for k, lu := range lus {
				if !live[k] {
					continue
				}
				for j := 0; j < p.n; j++ {
					lu.ftranCol(j, nil, wl)
					db.ftranCol(j, nil, wd)
					agree(stage, "ftranCol", j)
				}
				for i := 0; i < m; i++ {
					lu.btranRow(i, wl)
					db.btranRow(i, wd)
					agree(stage, "btranRow", i)
				}
				lu.btranVec(append(vc[:0], v...), wl)
				db.btranVec(append(vc[:0], v...), wd)
				agree(stage, "btranVec", -1)
			}
		}
		factor("slack basis")
		check("slack basis")
		w, ws := make([]float64, m), make([]float64, m)
		for round := 0; round < 2; round++ {
			for step, steps := 0, in.next(9); step < steps; step++ {
				j := in.next(p.n)
				if slices.Contains(basis, j) {
					continue
				}
				db.ftranCol(j, nil, w)
				slot := -1
				for i := range w {
					if math.Abs(w[i]) >= 0.1 && (slot < 0 || math.Abs(w[i]) > math.Abs(w[slot])) {
						slot = i
					}
				}
				if slot < 0 {
					continue
				}
				for k, lu := range lus {
					if !live[k] {
						continue
					}
					lu.ftranCol(j, nil, ws)
					if !lu.update(slot, ws) {
						t.Fatalf("step %d: LU (strict %v) refused column %d into slot %d, whose FTRAN entry %g is the largest",
							step, lu.strict, j, slot, w[slot])
					}
				}
				db.update(slot, w)
				basis[slot] = j
				check(fmt.Sprintf("round %d step %d", round, step))
			}
			factor(fmt.Sprintf("round %d refactor", round))
			check(fmt.Sprintf("round %d refactor", round))
		}
	})
}
