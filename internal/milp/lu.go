package milp

import (
	"cmp"
	"math"
	"slices"
)

// luBasis is the simplex's basis engine: a sparse LU factorization of the
// basis matrix B (columns indexed by basis slot, rows by LP row) with
// product-form (Forrest–Tomlin-style) eta updates between refactorizations.
//
// Factorization is left-looking column elimination with a static
// Markowitz-flavored pivot order: columns are factored in ascending
// nonzero-count order, and within a column the pivot row is chosen among
// rows within a threshold of the largest magnitude, preferring the sparsest
// row of the basis. The result is B·Q = L·U, where Q maps factor step k to
// basis slot q[k], L is unit lower triangular with its implicit diagonal at
// pivot rows prow[k], and U is upper triangular in factor coordinates.
//
// A pivot that replaces the column in basis slot r with a_enter multiplies B
// on the right by the eta matrix E (identity except column r = w = B⁻¹·a_enter),
// so B⁻¹ gains a left factor E⁻¹. FTRAN applies the LU solves then the eta
// chain oldest-first; BTRAN applies the transposed chain newest-first then
// the transposed LU solves. The chain is bounded by etaLimit/fillLimit;
// crossing either reports needsRefactor. Element growth beyond maxGrowth
// during factorization returns errUnstableFactor, which the owning scratch
// answers by setting strict and factoring the same basis again (see
// simplexState.refactorize).
//
// Vector spaces: FTRAN results and eta pivots live in basis-slot space; BTRAN
// results (dual vectors) live in LP-row space. For the square basis these
// coincide dimensionally but not semantically.
type luBasis struct {
	p     *lp
	stats *LPStats

	// strict pivots every column on its largest magnitude (partial pivoting)
	// and skips the growth check. Set after an unstable factor, cleared by
	// bind.
	strict bool

	prow []int32 // factor step -> pivot LP row
	q    []int32 // factor step -> basis slot
	// L columns excluding the unit diagonal; row indices are LP rows.
	lstart []int32
	lrow   []int32
	lval   []float64
	// U columns excluding the diagonal; row indices are factor steps j < k.
	ustart []int32
	urow   []int32
	uval   []float64
	udiag  []float64

	// Eta chain accumulated since the last factor; indices are basis slots.
	etaR     []int32
	etaPiv   []float64
	etaStart []int32
	etaRow   []int32
	etaVal   []float64

	// Refactorization budgets; fields so the torture tests can tighten them.
	etaLimit  int // refactor after this many eta updates
	fillLimit int // ... or once the chain carries this many entries

	work    []float64 // dense accumulator over LP rows
	mark    []int32   // row -> stamp of the column currently factoring
	touched []int32   // rows touched by the column currently factoring
	pos     []int32   // LP row -> factor step, -1 while unpivoted
	zbuf    []float64 // factor-coordinate solve scratch
	vbuf    []float64 // scatter scratch, kept all-zero between calls
	rowCnt  []int32   // basis row counts for the Markowitz row preference
	colCnt  []int32   // per-slot column counts for the factor order
	stamp   int32
}

// maxGrowth is the element growth past which a threshold-pivoted factor is
// rejected as unstable; a variable so tests can force the strict retry.
var maxGrowth = 1e12

// bind re-targets the engine at p with default budgets, no factors and
// threshold pivoting. Its working arrays are cut, zeroed, from w's slabs; the
// append-grown factor and eta arrays keep their storage.
func (u *luBasis) bind(w *Workspace, p *lp, stats *LPStats) {
	m := p.m
	u.p, u.stats, u.strict = p, stats, false
	in, fl := &w.int32s, &w.floats
	u.prow, u.q, u.lstart, u.ustart = in.Take(m), in.Take(m), in.Take(m+1), in.Take(m+1)
	u.mark, u.touched, u.pos = in.Take(m), in.Take(m)[:0], in.Take(m)
	u.rowCnt, u.colCnt = in.Take(m), in.Take(m)
	u.udiag, u.work, u.zbuf, u.vbuf = fl.Take(m), fl.Take(m), fl.Take(m), fl.Take(m)
	u.lrow, u.lval = u.lrow[:0], u.lval[:0]
	u.urow, u.uval = u.urow[:0], u.uval[:0]
	if cap(u.etaStart) < 65 {
		u.etaStart = make([]int32, 1, 65)
	}
	u.etaStart[0] = 0
	u.clearEtas()
	u.etaLimit, u.fillLimit = 64, 6*m+256
	u.stamp = 0
}

func (u *luBasis) clearEtas() {
	u.etaR = u.etaR[:0]
	u.etaPiv = u.etaPiv[:0]
	u.etaStart = u.etaStart[:1]
	u.etaRow = u.etaRow[:0]
	u.etaVal = u.etaVal[:0]
}

// reset installs the diagonal basis B = diag(d): a trivial factor with
// identity permutations and no off-diagonal fill.
func (u *luBasis) reset(diag []float64) {
	m := u.p.m
	u.clearEtas()
	for k := 0; k < m; k++ {
		u.prow[k] = int32(k)
		u.q[k] = int32(k)
		u.lstart[k+1] = 0
		u.ustart[k+1] = 0
		u.udiag[k] = diag[k]
	}
	u.lrow = u.lrow[:0]
	u.lval = u.lval[:0]
	u.urow = u.urow[:0]
	u.uval = u.uval[:0]
}

// factor rebuilds L and U from the basic columns and clears the eta chain.
// basis[i] < p.n indexes an LP column; basis[i] >= p.n indexes the phase-1
// artificial for row basis[i]−p.n with coefficient art[basis[i]−p.n]. It
// returns errSingularBasis or errUnstableFactor on failure, leaving the
// factors unusable until the next successful reset or factor.
func (u *luBasis) factor(basis []int, art []float64) error {
	p := u.p
	m := p.m
	u.clearEtas()
	u.lrow, u.lval = u.lrow[:0], u.lval[:0]
	u.urow, u.uval = u.urow[:0], u.uval[:0]
	u.lstart[0], u.ustart[0] = 0, 0

	// Static Markowitz-flavored ordering: column counts decide the factor
	// order, row counts the within-column pivot preference.
	for i := 0; i < m; i++ {
		u.rowCnt[i] = 0
		u.pos[i] = -1
		u.q[i] = int32(i)
	}
	maxB := 0.0
	for slot, j := range basis {
		if j < p.n {
			st, en := p.colStart[j], p.colStart[j+1]
			u.colCnt[slot] = int32(en - st)
			for t := st; t < en; t++ {
				u.rowCnt[p.colRow[t]]++
				if a := math.Abs(p.colVal[t]); a > maxB {
					maxB = a
				}
			}
		} else {
			u.colCnt[slot] = 1
			u.rowCnt[j-p.n]++
			// artificial coefficients are ±1
			if maxB < 1 {
				maxB = 1
			}
		}
	}
	cnt := u.colCnt
	slices.SortFunc(u.q, func(qa, qb int32) int {
		return cmp.Or(cmp.Compare(cnt[qa], cnt[qb]), cmp.Compare(qa, qb))
	})

	if u.stamp > math.MaxInt32-int32(m)-2 {
		for i := range u.mark {
			u.mark[i] = 0
		}
		u.stamp = 0
	}
	maxU := 0.0
	for k := 0; k < m; k++ {
		u.stamp++
		stamp := u.stamp
		u.touched = u.touched[:0]
		work := u.work
		// Scatter the column for this factor step.
		j := basis[u.q[k]]
		if j < p.n {
			for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
				r := p.colRow[t]
				work[r] = p.colVal[t]
				u.mark[r] = stamp
				u.touched = append(u.touched, r)
			}
		} else {
			r := int32(j - p.n)
			work[r] = art[j-p.n]
			u.mark[r] = stamp
			u.touched = append(u.touched, r)
		}
		// Left-looking elimination: apply every earlier column whose pivot
		// row is live in the accumulator, in factor order so each pivot value
		// is final before it is used.
		for jj := 0; jj < k; jj++ {
			pr := u.prow[jj]
			if u.mark[pr] != stamp {
				continue
			}
			pv := work[pr]
			if pv == 0 {
				continue
			}
			for t := u.lstart[jj]; t < u.lstart[jj+1]; t++ {
				r := u.lrow[t]
				if u.mark[r] != stamp {
					u.mark[r] = stamp
					work[r] = 0
					u.touched = append(u.touched, r)
				}
				work[r] -= u.lval[t] * pv
			}
		}
		// Threshold pivoting: among unpivoted rows within 10× of the largest
		// magnitude (only the largest when strict), prefer the sparsest basis
		// row (Markowitz row count), then the larger magnitude — deterministic
		// because the touched list order is a pure function of the input.
		maxAbs := 0.0
		for _, r := range u.touched {
			if u.pos[r] >= 0 {
				continue
			}
			if a := math.Abs(work[r]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs < 1e-12 {
			for _, r := range u.touched {
				work[r] = 0
			}
			return errSingularBasis
		}
		thresh := 0.1 * maxAbs
		if u.strict {
			thresh = maxAbs
		}
		pr := int32(-1)
		var prCnt int32
		var prAbs float64
		for _, r := range u.touched {
			if u.pos[r] >= 0 {
				continue
			}
			a := math.Abs(work[r])
			if a < thresh {
				continue
			}
			c := u.rowCnt[r]
			if pr < 0 || c < prCnt || (c == prCnt && a > prAbs) {
				pr, prCnt, prAbs = r, c, a
			}
		}
		piv := work[pr]
		u.prow[k] = pr
		u.pos[pr] = int32(k)
		u.udiag[k] = piv
		if a := math.Abs(piv); a > maxU {
			maxU = a
		}
		for _, r := range u.touched {
			v := work[r]
			work[r] = 0
			if r == pr || v == 0 {
				continue
			}
			if ps := u.pos[r]; ps >= 0 {
				u.urow = append(u.urow, ps)
				u.uval = append(u.uval, v)
				if a := math.Abs(v); a > maxU {
					maxU = a
				}
			} else if l := v / piv; l > 1e-14 || l < -1e-14 {
				u.lrow = append(u.lrow, r)
				u.lval = append(u.lval, l)
			}
		}
		u.lstart[k+1] = int32(len(u.lrow))
		u.ustart[k+1] = int32(len(u.urow))
	}
	if !u.strict && maxU > maxGrowth*math.Max(1, maxB) {
		return errUnstableFactor
	}
	u.stats.Factorizations++
	return nil
}

// applyEtasFtran applies the eta chain oldest-first to a slot-space vector:
// each E⁻¹ scales the pivot slot and subtracts its column from the rest.
func (u *luBasis) applyEtasFtran(w []float64) {
	for e := 0; e < len(u.etaR); e++ {
		r := u.etaR[e]
		t := w[r] / u.etaPiv[e]
		w[r] = t
		if t == 0 {
			continue
		}
		for k := u.etaStart[e]; k < u.etaStart[e+1]; k++ {
			w[u.etaRow[k]] -= u.etaVal[k] * t
		}
	}
}

// ftranVec computes w = B⁻¹·v. v is clobbered; v and w must not alias.
func (u *luBasis) ftranVec(v, w []float64) {
	m := u.p.m
	// L-solve in place over LP rows.
	for k := 0; k < m; k++ {
		pv := v[u.prow[k]]
		if pv == 0 {
			continue
		}
		for t := u.lstart[k]; t < u.lstart[k+1]; t++ {
			v[u.lrow[t]] -= u.lval[t] * pv
		}
	}
	// U-solve into factor coordinates, then permute into slot space.
	z := u.zbuf
	for k := m - 1; k >= 0; k-- {
		t := v[u.prow[k]]
		if t == 0 {
			z[k] = 0
			continue
		}
		zk := t / u.udiag[k]
		z[k] = zk
		for e := u.ustart[k]; e < u.ustart[k+1]; e++ {
			v[u.prow[u.urow[e]]] -= u.uval[e] * zk
		}
	}
	for k := 0; k < m; k++ {
		w[u.q[k]] = z[k]
	}
	u.applyEtasFtran(w)
}

// ftranCol computes w = B⁻¹·a_j for LP column j (j ≥ p.n: artificial).
func (u *luBasis) ftranCol(j int, art []float64, w []float64) {
	p := u.p
	v := u.vbuf
	if j >= p.n {
		v[j-p.n] = art[j-p.n]
	} else {
		for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
			v[p.colRow[t]] = p.colVal[t]
		}
	}
	u.ftranVec(v, w)
	for i := range v {
		v[i] = 0
	}
}

// btranVec computes y = Bᵀ⁻¹·v for a slot-space v (e.g. basic costs). v is
// clobbered; v and y must not alias.
func (u *luBasis) btranVec(v, y []float64) {
	m := u.p.m
	// Transposed eta chain, newest first: only the pivot slot changes.
	for e := len(u.etaR) - 1; e >= 0; e-- {
		r := u.etaR[e]
		acc := v[r]
		for k := u.etaStart[e]; k < u.etaStart[e+1]; k++ {
			acc -= u.etaVal[k] * v[u.etaRow[k]]
		}
		v[r] = acc / u.etaPiv[e]
	}
	// Uᵀ forward solve in factor coordinates (a dot product per column).
	z := u.zbuf
	for k := 0; k < m; k++ {
		acc := v[u.q[k]]
		for e := u.ustart[k]; e < u.ustart[k+1]; e++ {
			acc -= u.uval[e] * z[u.urow[e]]
		}
		z[k] = acc / u.udiag[k]
	}
	// Lᵀ backward solve into LP-row space: every off-diagonal of column k
	// sits in a row pivoted after k, so those y entries are already final.
	for k := m - 1; k >= 0; k-- {
		acc := z[k]
		for t := u.lstart[k]; t < u.lstart[k+1]; t++ {
			acc -= u.lval[t] * y[u.lrow[t]]
		}
		y[u.prow[k]] = acc
	}
}

// btranRow computes rho = e_rᵀ·B⁻¹, row r of the basis inverse.
func (u *luBasis) btranRow(r int, rho []float64) {
	v := u.vbuf
	v[r] = 1
	u.btranVec(v, rho)
	for i := range v {
		v[i] = 0
	}
}

// update absorbs a pivot in basis slot r, where w = B⁻¹·a_enter is the vector
// ftranCol just returned, as one more eta in the chain. It refuses pivots
// that are too small absolutely or relative to the pivot column, leaving the
// factors unchanged (the caller refactorizes instead, which re-pivots for
// stability).
func (u *luBasis) update(r int, w []float64) bool {
	piv := w[r]
	a := math.Abs(piv)
	if a < pivotTol {
		return false
	}
	maxW := 0.0
	for _, v := range w {
		if v < 0 {
			v = -v
		}
		if v > maxW {
			maxW = v
		}
	}
	if a < 1e-8*maxW {
		return false
	}
	u.etaR = append(u.etaR, int32(r))
	u.etaPiv = append(u.etaPiv, piv)
	for i, v := range w {
		if i == r || (v < 1e-13 && v > -1e-13) {
			continue
		}
		u.etaRow = append(u.etaRow, int32(i))
		u.etaVal = append(u.etaVal, v)
	}
	u.etaStart = append(u.etaStart, int32(len(u.etaRow)))
	u.stats.EtaUpdates++
	return true
}

// needsRefactor reports that the eta chain crossed its length or fill budget
// and a refactorization is due.
func (u *luBasis) needsRefactor() bool {
	return len(u.etaR) >= u.etaLimit || len(u.etaRow) >= u.fillLimit
}
