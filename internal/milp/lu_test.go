package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Numerical torture tests for the sparse LU basis engine: every operation is
// checked against the dense inverse on the same basis, factorization must
// reject singular and numerically wild bases, the eta chain must stay exact
// through forced-refactorization churn, and the dense fallback must engage
// when (and only when) a factorization is rejected as unstable.

func newDenseBasis(p *lp, stats *LPStats) *denseBasis {
	d := new(denseBasis)
	d.bind(p, stats)
	return d
}

// tortureModel builds a random MILP whose LP relaxation has a mix of
// inequality senses, ranged coefficients, and enough structure to produce
// non-trivial optimal bases.
func tortureModel(r *rand.Rand, nv, nc int) *Model {
	m := NewModel(Maximize)
	for j := 0; j < nv; j++ {
		typ := Continuous
		if r.Intn(2) == 0 {
			typ = Binary
		}
		m.AddVar("", typ, 0, 1+float64(r.Intn(4)), r.Float64()*10-2)
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
		op := LE
		if r.Intn(4) == 0 {
			op = GE
		}
		rhs := float64(r.Intn(20))
		if op == GE {
			rhs = -rhs
		}
		m.AddConstraint("", terms, op, rhs)
	}
	return m
}

// solvedBasis runs a cold LP solve and returns the scratch if it ended on an
// all-structural optimal basis (nil otherwise).
func solvedBasis(p *lp) *simplexState {
	s := newScratch(p)
	st, _, err := s.solve(p.lb, p.ub, 0, timeZero())
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

// TestLUEngineMatchesDense factors the same solved bases with both engines
// and checks FTRAN/BTRAN agreement entry-for-entry, then drives a chain of
// simulated pivots through both and re-checks after every eta update.
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
		lu := newLUBasis(p, &stLU)
		db := newDenseBasis(p, &stD)
		basis := append([]int(nil), s.basis...)
		if err := lu.factor(basis, nil); err != nil {
			t.Fatalf("it %d: LU factor: %v", it, err)
		}
		if err := db.factor(basis, nil); err != nil {
			t.Fatalf("it %d: dense factor: %v", it, err)
		}
		checkAgree := func(stage string) {
			wl, wd := make([]float64, m), make([]float64, m)
			for j := 0; j < p.n; j++ {
				lu.ftranCol(j, nil, wl)
				db.ftranCol(j, nil, wd)
				if d := maxDiff(wl, wd); d > 1e-7 {
					t.Fatalf("it %d %s: ftranCol(%d) diverges by %g", it, stage, j, d)
				}
			}
			for i := 0; i < m; i++ {
				lu.btranRow(i, wl)
				db.btranRow(i, wd)
				if d := maxDiff(wl, wd); d > 1e-7 {
					t.Fatalf("it %d %s: btranRow(%d) diverges by %g", it, stage, i, d)
				}
			}
			vl, vd := make([]float64, m), make([]float64, m)
			for i := range vl {
				vl[i] = r.Float64()*4 - 2
				vd[i] = vl[i]
			}
			lu.btranVec(vl, wl)
			db.btranVec(vd, wd)
			if d := maxDiff(wl, wd); d > 1e-7 {
				t.Fatalf("it %d %s: btranVec diverges by %g", it, stage, d)
			}
		}
		checkAgree("post-factor")
		// Simulated pivot chain: bring nonbasic columns in one at a time.
		w := make([]float64, m)
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
			lu.ftranCol(j, nil, w)
			slot := -1
			for i := 0; i < m; i++ {
				if math.Abs(w[i]) > 0.1 && (slot < 0 || math.Abs(w[i]) > math.Abs(w[slot])) {
					slot = i
				}
			}
			if slot < 0 {
				continue
			}
			if !lu.update(slot, w) {
				continue
			}
			if !db.update(slot, w) {
				t.Fatalf("it %d: dense refused a pivot the LU engine took", it)
			}
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

// TestLUSingularBasisRejected gives both engines a basis with two linearly
// dependent columns; both must report errSingularBasis and neither may be
// left claiming a usable representation.
func TestLUSingularBasisRejected(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", Continuous, 0, 10, 1)
	y := m.AddVar("y", Continuous, 0, 10, 1)
	m.AddConstraint("r0", []Term{{x, 1}, {y, 1}}, LE, 5)
	m.AddConstraint("r1", []Term{{x, 2}, {y, 2}}, LE, 9)
	p := newLP(m)
	var st LPStats
	basis := []int{0, 1} // columns x and y: row-proportional, singular
	if err := newLUBasis(p, &st).factor(basis, nil); err != errSingularBasis {
		t.Fatalf("LU factor of singular basis: %v, want errSingularBasis", err)
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
// checks the solver still reaches the same optimum as the dense engine.
func TestLUForcedRefactorization(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var refactors int64
	for it := 0; it < 40; it++ {
		model := tortureModel(r, 6+r.Intn(8), 4+r.Intn(6))
		p := newLP(model)
		s := newScratch(p)
		lu := s.eng.(*luBasis)
		lu.etaLimit = 1
		lu.fillLimit = 1
		st1, x1, err := s.solve(p.lb, p.ub, 0, timeZero())
		if err != nil {
			t.Fatalf("it %d: forced-refactor solve: %v", it, err)
		}
		pd := newLP(model)
		sd := newScratch(pd)
		sd.useDense()
		st2, x2, err := sd.solve(pd.lb, pd.ub, 0, timeZero())
		if err != nil {
			t.Fatalf("it %d: dense solve: %v", it, err)
		}
		if st1 != st2 {
			t.Fatalf("it %d: status %v (forced refactor) vs %v (dense)", it, st1, st2)
		}
		if st1 != lpOptimal {
			continue
		}
		o1, o2 := model.ObjectiveValue(x1[:len(model.Vars)]), model.ObjectiveValue(x2[:len(model.Vars)])
		if math.Abs(o1-o2) > 1e-6*math.Max(1, math.Abs(o2)) {
			t.Fatalf("it %d: objective %.9f (forced refactor) != %.9f (dense)", it, o1, o2)
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

// TestLUUnstableFactorFallsBackDense forces the growth limit to an absurdly
// small value so the next refactorization rejects the factor as unstable,
// and checks the scratch permanently swaps to the dense engine, counts the
// fallback, and keeps solving correctly.
func TestLUUnstableFactorFallsBackDense(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	swapped := 0
	for it := 0; it < 30; it++ {
		model := tortureModel(r, 6+r.Intn(6), 4+r.Intn(5))
		p := newLP(model)
		s := solvedBasis(p)
		if s == nil {
			continue
		}
		lu, ok := s.eng.(*luBasis)
		if !ok {
			t.Fatalf("it %d: default engine is %T, want *luBasis", it, s.eng)
		}
		lu.growthLimit = 1e-300 // every factor now exceeds the growth budget
		if err := s.refactorize(); err != nil {
			t.Fatalf("it %d: refactorize with fallback: %v", it, err)
		}
		if _, ok := s.eng.(*denseBasis); !ok {
			t.Fatalf("it %d: engine after unstable factor is %T, want *denseBasis", it, s.eng)
		}
		if s.stats.DenseFallbacks != 1 {
			t.Fatalf("it %d: DenseFallbacks = %d, want 1", it, s.stats.DenseFallbacks)
		}
		swapped++
		// The swapped scratch must still solve exactly.
		st, x, err := s.solve(p.lb, p.ub, 0, timeZero())
		if err != nil || st != lpOptimal {
			t.Fatalf("it %d: post-fallback solve: status %v err %v", it, st, err)
		}
		pd := newLP(model)
		sd := newScratch(pd)
		sd.useDense()
		_, xd, err := sd.solve(pd.lb, pd.ub, 0, timeZero())
		if err != nil {
			t.Fatalf("it %d: reference dense solve: %v", it, err)
		}
		o1, o2 := model.ObjectiveValue(x[:len(model.Vars)]), model.ObjectiveValue(xd[:len(model.Vars)])
		if math.Abs(o1-o2) > 1e-6*math.Max(1, math.Abs(o2)) {
			t.Fatalf("it %d: post-fallback objective %.9f != dense %.9f", it, o1, o2)
		}
	}
	if swapped < 10 {
		t.Fatalf("only %d fallback swaps exercised; coverage too thin", swapped)
	}
}

// TestLUSingularWarmBasisFallsBackCold restores a structurally valid snapshot
// whose basis matrix is singular (two duplicate columns of the model, not of
// the snapshot): restore accepts it, refactorization must fail, and the warm
// path must fall back cold and still return the optimum.
func TestLUSingularWarmBasisFallsBackCold(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", Continuous, 0, 4, 1)
	y := m.AddVar("y", Continuous, 0, 4, 1) // same column as x in every row
	m.AddConstraint("r0", []Term{{x, 1}, {y, 1}}, LE, 6)
	m.AddConstraint("r1", []Term{{x, 3}, {y, 3}}, LE, 12)
	p := newLP(m)
	s := newScratch(p)
	warm := &basisState{
		basis:  []int32{0, 1}, // x and y basic: structurally valid, singular
		status: []byte{inBasis, inBasis, atLower, atLower},
	}
	st, xv, err := s.solveFrom(warm, p.lb, p.ub, 0, timeZero())
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

// timeZero returns the zero deadline (helper keeps call sites terse).
func timeZero() (t0 time.Time) { return }
