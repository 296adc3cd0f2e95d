package milp

import (
	"errors"
	"math"
)

// basisState is a compact snapshot of an optimal simplex basis: the basic
// column of each row plus every column's resting position. It deliberately
// excludes the basis representation — restoring refactorizes from the column
// data — so a snapshot costs O(m + n) bytes, not O(m²), and branch-and-bound
// can attach one to both children of a node: a snapshot is not written while
// a node references it, so both restore from the same one.
type basisState struct {
	basis  []int32 // row -> column
	status []byte  // column -> position, structurals and slacks only
	refs   int32   // open nodes that will restore from it
}

// newSnapshot cuts an empty snapshot for p's shape from the slabs.
func (w *Workspace) newSnapshot(p *lp) *basisState {
	bs := &w.snaps.take(1)[0]
	bs.basis, bs.status = w.int32s.take(p.m), w.bytes.take(p.n)
	return bs
}

// snapshotInto captures the current basis into bs (cut for this LP's shape)
// for a later warm restart. It reports false, leaving bs with no meaning,
// when the basis cannot seed one: a phase-1 artificial still sits in it. Call
// it only directly after a solve on this scratch returned lpOptimal; any
// later solve overwrites the state being captured.
func (s *simplexState) snapshotInto(bs *basisState) bool {
	p := s.p
	for i, j := range s.basis {
		if j >= p.n {
			return false // artificial basic at zero: not a phase-2 basis
		}
		bs.basis[i] = int32(j)
	}
	copy(bs.status, s.status[:p.n])
	return true
}

// restore adopts a snapshot into the scratch under the given (possibly
// changed) bounds: statuses are copied, nonbasic variables rest on their new
// bounds, and basic values are left for refactorization to fill in. It
// reports false when the snapshot is structurally invalid for this LP —
// wrong shape, out-of-range or duplicate basic columns, statuses that do not
// match the basis, or a nonbasic position with no finite bound to rest on —
// in which case the caller must fall back to a cold solve.
func (s *simplexState) restore(warm *basisState, lb, ub []float64) bool {
	p := s.p
	if warm == nil || len(warm.basis) != p.m || len(warm.status) != p.n {
		return false
	}
	copy(s.status, warm.status)
	// Walk the basis, marking each basic column as visited so duplicates —
	// which would alias two rows to one column and corrupt the
	// refactorization — are rejected.
	const visited = 0xff
	ok := true
	for i, j32 := range warm.basis {
		j := int(j32)
		if j < 0 || j >= p.n || s.status[j] != inBasis {
			ok = false
			break
		}
		s.status[j] = visited
		s.basis[i] = j
	}
	inBasisCount := 0
	for j := 0; j < p.n; j++ {
		if s.status[j] == visited {
			s.status[j] = inBasis
			inBasisCount++
		} else if s.status[j] == inBasis {
			ok = false // marked basic but absent from the basis rows
		}
	}
	if !ok || inBasisCount != p.m {
		return false
	}
	for j := 0; j < p.n; j++ {
		if lb[j] > ub[j] {
			return false // crossing bounds: not a warm-startable box
		}
		switch s.status[j] {
		case atLower:
			if math.IsInf(lb[j], -1) {
				return false // stale: the bound it rested on is gone
			}
			s.x[j] = lb[j]
		case atUpper:
			if math.IsInf(ub[j], 1) {
				return false
			}
			s.x[j] = ub[j]
		case atFree:
			s.x[j] = 0
		default: // inBasis: refactorize computes the value
			s.x[j] = 0
		}
	}
	return true
}

// errUnstableFactor is returned by the LU engine when element growth during
// factorization exceeds its stability budget; the scratch responds by
// swapping in the dense engine until it is next bound.
var errUnstableFactor = errors.New("milp: unstable LU factorization")

// basisEngine maintains an invertible representation of the simplex basis
// matrix B (columns indexed by basis slot, rows by LP row). Two
// implementations exist: denseBasis keeps the explicit m×m inverse updated in
// product form (the historical kernel, now the fallback after an unstable
// factorization) and luBasis keeps sparse LU factors with
// Forrest–Tomlin/product-form eta updates (the engine every scratch starts
// on; see lu.go).
//
// Vector spaces: FTRAN results and eta pivots live in basis-slot space; BTRAN
// results (dual vectors) live in LP-row space. For the square basis these
// coincide dimensionally but not semantically.
type basisEngine interface {
	// reset installs the diagonal basis B = diag(d); every d entry must be
	// ±1 (the all-slack and signed-artificial quick starts).
	reset(d []float64)
	// factor rebuilds the representation from the basic columns. basis[i] <
	// p.n indexes an LP column; basis[i] >= p.n indexes the phase-1
	// artificial for row basis[i]−p.n with coefficient art[basis[i]−p.n].
	// Returns errSingularBasis or errUnstableFactor on failure, leaving the
	// representation unusable until the next successful reset/factor.
	factor(basis []int, art []float64) error
	// ftranCol computes w = B⁻¹·a_j for LP column j (j ≥ p.n: artificial).
	ftranCol(j int, art []float64, w []float64)
	// ftranVec computes w = B⁻¹·v. v is clobbered; v and w must not alias.
	ftranVec(v, w []float64)
	// btranVec computes y = Bᵀ⁻¹·v for a slot-space v (e.g. basic costs).
	// v is clobbered; v and y must not alias.
	btranVec(v, y []float64)
	// btranRow computes rho = e_rᵀ·B⁻¹, row r of the basis inverse.
	btranRow(r int, rho []float64)
	// update absorbs a pivot in basis slot r where w = B⁻¹·a_enter (the
	// vector just returned by ftranCol). It reports false when the update
	// would be numerically unsafe or the update budget is spent, in which
	// case the caller must refactorize instead — the representation is
	// unchanged.
	update(r int, w []float64) bool
	// needsRefactor reports that accumulated updates crossed the engine's
	// fill or chain-length budget and a refactorization is due.
	needsRefactor() bool
}

// denseBasis is the historical dense kernel behind the basisEngine interface:
// an explicit row-major m×m basis inverse, product-form pivot updates, and
// Gauss-Jordan refactorization. O(m²) memory and per-pivot work — retained as
// the fallback target when LU factorization goes numerically bad, and as the
// tests' reference engine.
type denseBasis struct {
	p    *lp
	binv []float64 // dense basis inverse, row-major, stride m

	refac     []float64   // refactorization workspace, m×2m flat
	refacRows [][]float64 // row headers into refac, swapped while pivoting

	stats *LPStats
}

// bind re-targets the engine at p, keeping its storage when large enough.
func (d *denseBasis) bind(p *lp, stats *LPStats) {
	d.p, d.stats = p, stats
	d.binv = zeroed(d.binv, p.m*p.m)
}

func (d *denseBasis) reset(diag []float64) {
	m := d.p.m
	for i := range d.binv {
		d.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		d.binv[i*m+i] = diag[i] // diag(±1) is its own inverse
	}
}

// factor recomputes the basis inverse from scratch with Gauss-Jordan
// elimination and partial pivoting. The workspace is owned by the engine and
// reused across calls; row swaps exchange headers, not data.
func (d *denseBasis) factor(basis []int, art []float64) error {
	p := d.p
	m := p.m
	w2 := 2 * m
	if len(d.refac) != m*w2 {
		d.refac = zeroed(d.refac, m*w2)
		d.refacRows = zeroed(d.refacRows, m)
	}
	a := d.refacRows
	for i := 0; i < m; i++ {
		row := d.refac[i*w2 : i*w2+w2]
		for k := range row {
			row[k] = 0
		}
		row[m+i] = 1
		a[i] = row
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

// ftranCol exploits column sparsity: each basis-inverse row is streamed once
// and only the column's nonzeros touched.
func (d *denseBasis) ftranCol(enter int, art []float64, w []float64) {
	p := d.p
	m := p.m
	if enter >= p.n {
		ar, ac := enter-p.n, art[enter-p.n]
		for i := 0; i < m; i++ {
			w[i] = d.binv[i*m+ar] * ac
		}
		return
	}
	st0, en0 := p.colStart[enter], p.colStart[enter+1]
	if en0-st0 == 1 {
		r0, v0 := int(p.colRow[st0]), p.colVal[st0]
		for i := 0; i < m; i++ {
			w[i] = d.binv[i*m+r0] * v0
		}
		return
	}
	rows, vals := p.colRow[st0:en0], p.colVal[st0:en0]
	for i := 0; i < m; i++ {
		row := d.binv[i*m : i*m+m]
		acc := 0.0
		for k, r := range rows {
			acc += row[r] * vals[k]
		}
		w[i] = acc
	}
}

func (d *denseBasis) ftranVec(v, w []float64) {
	m := d.p.m
	for i := 0; i < m; i++ {
		row := d.binv[i*m : i*m+m]
		acc := 0.0
		for k, rv := range v {
			if rv != 0 {
				acc += row[k] * rv
			}
		}
		w[i] = acc
	}
}

func (d *denseBasis) btranVec(v, y []float64) {
	m := d.p.m
	for i := 0; i < m; i++ {
		y[i] = 0
	}
	for r := 0; r < m; r++ {
		vr := v[r]
		if vr == 0 {
			continue
		}
		row := d.binv[r*m : r*m+m]
		for i, bv := range row {
			y[i] += vr * bv
		}
	}
}

func (d *denseBasis) btranRow(r int, rho []float64) {
	m := d.p.m
	copy(rho, d.binv[r*m:r*m+m])
}

// update applies the product-form basis-inverse update for a pivot in row r.
// Rows with a negligible multiplier are skipped entirely, so the cost scales
// with the fill of the pivot column.
func (d *denseBasis) update(r int, w []float64) bool {
	m := d.p.m
	rowR := d.binv[r*m : r*m+m]
	inv := 1 / w[r]
	for k := range rowR {
		rowR[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i]
		if f < 1e-13 && f > -1e-13 {
			continue
		}
		rowI := d.binv[i*m : i*m+m]
		for k := range rowI {
			rowI[k] -= f * rowR[k]
		}
	}
	return true
}

// needsRefactor is always false: the dense inverse has no fill budget, and
// drift control is the caller's periodic refactorization countdown.
func (d *denseBasis) needsRefactor() bool { return false }
