package milp

import "math"

// Dual simplex warm restarts.
//
// A branch-and-bound child differs from its parent by exactly one tightened
// variable bound, and the parent's optimal basis stays dual feasible under
// any bound change (reduced costs depend only on costs and the basis). So
// instead of re-solving the child from scratch, solveFrom restores the
// parent basis, lets the one out-of-bounds basic variable drive a handful of
// dual simplex pivots, and finishes with a primal pricing pass that
// certifies optimality. Anything that invalidates the warm start — a corrupt
// or stale snapshot, a singular refactorization, a dual-infeasible start, a
// stalled dual phase — falls back to the cold primal path, so warm restarts
// can only ever change how fast a node solves, never what it returns.

// solveFrom solves the LP under the given bounds, warm-starting from the
// snapshot when possible and falling back to the cold path otherwise. The
// returned slice aliases the scratch, like solve's.
func (s *simplexState) solveFrom(warm *basisState, lb, ub []float64, maxIter int) (lpStatus, []float64, error) {
	if warm != nil {
		st, x, used := s.solveWarm(warm, lb, ub, maxIter)
		if used {
			s.stats.WarmHits++
			return st, x, nil
		}
		s.stats.WarmFallbacks++
	}
	return s.solve(lb, ub, maxIter)
}

// solveWarm attempts the dual-simplex restart; used reports whether the warm
// path ran to a conclusion (optimal, infeasible, or out of budget). When
// used is false the scratch holds no meaningful result and the caller must
// run the cold path.
func (s *simplexState) solveWarm(warm *basisState, lb, ub []float64, maxIter int) (st lpStatus, x []float64, used bool) {
	p := s.p
	s.begin(maxIter)
	if !s.restore(warm, lb, ub) {
		return 0, nil, false
	}
	if err := s.refactorize(); err != nil {
		return 0, nil, false
	}
	// The restored basis must price out dual-feasibly, or the dual method's
	// invariant (and its infeasibility certificate) is void.
	s.cost = p.c
	s.computeDuals()
	if !s.dualFeasible(lb, ub) {
		return 0, nil, false
	}
	switch ds, err := s.dualIterate(lb, ub); {
	case err != nil || ds == lpStalled:
		// Singular mid-flight refactorization or an out-of-budget dual
		// phase: the state is unusable, start over cold.
		return 0, nil, false
	case ds == lpInfeasible:
		return lpInfeasible, nil, true
	case ds == lpIterLimit:
		return lpIterLimit, nil, true // iteration cap: the work budget or the default
	}
	// Dual phase reached primal feasibility; a primal pass from this basis
	// certifies optimality (usually a single pricing scan) and repairs any
	// residual reduced-cost drift.
	s.bland, s.stall = false, 0
	pst, err := s.iterate(lb, ub, p.c)
	if err != nil {
		return 0, nil, false
	}
	return pst, s.x[:p.n], true
}

// dualFeasible reports whether every nonbasic column prices out consistently
// with its resting position, within warmTol.
func (s *simplexState) dualFeasible(lb, ub []float64) bool {
	p := s.p
	y := s.y
	for j := 0; j < p.n; j++ {
		st := s.status[j]
		if st == inBasis || lb[j] == ub[j] {
			continue
		}
		d := p.c[j]
		for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
			d -= y[p.colRow[k]] * p.colVal[k]
		}
		switch st {
		case atLower:
			if d < -warmTol {
				return false
			}
		case atUpper:
			if d > warmTol {
				return false
			}
		case atFree:
			if d < -warmTol || d > warmTol {
				return false
			}
		}
	}
	return true
}

// dualIterate runs bounded-variable dual simplex pivots until primal
// feasibility (which, from a dual-feasible start, is optimality), until a
// violated row admits no entering column (a Farkas certificate: the LP is
// infeasible), or until a budget stop. lpStalled means the local iteration
// cap was exhausted and the caller should fall back to a cold solve;
// lpIterLimit means the LP's own iteration cap was.
func (s *simplexState) dualIterate(lb, ub []float64) (lpStatus, error) {
	p := s.p
	m := p.m
	// A valid warm restart converges in a handful of pivots; a long dual
	// phase signals numerical trouble and is cheaper to restart cold.
	budget := 6*m + 300
	taken := 0
	refactorCountdown := refactorInterval
	dualBland := false
	stall := 0
	for {
		if s.iter >= s.maxIter {
			return lpIterLimit, nil
		}
		if taken >= budget {
			return lpStalled, nil
		}
		s.iter++
		taken++
		s.stats.Iterations++
		if refactorCountdown--; refactorCountdown <= 0 || s.lu.needsRefactor() {
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			s.computeDuals()
			s.resetDevex()
			refactorCountdown = refactorInterval
		}
		// Leaving row: Devex-weighted primal infeasibility v²/δ_i, an
		// approximate steepest-edge measure over the violated rows. Raw
		// eligibility (violation beyond feasTol) is unchanged, so the pricer
		// only reorders pivots among rows the plain rule could also pick
		// (Bland mode: the lowest row with any violation).
		leave := -1
		bestScore := 0.0
		below := false
		for i := 0; i < m; i++ {
			bj := s.basis[i]
			var v float64
			var under bool
			if v = lb[bj] - s.x[bj]; v > feasTol {
				under = true
			} else if v = s.x[bj] - ub[bj]; v > feasTol {
				under = false
			} else {
				continue
			}
			if dualBland {
				leave, below = i, under
				break
			}
			if score := v * v / s.dwt[i]; score > bestScore {
				bestScore, leave, below = score, i, under
			}
		}
		if leave < 0 {
			return lpOptimal, nil
		}
		out := s.basis[leave]
		rho := s.rho
		s.lu.btranRow(leave, rho)
		// Entering column via the bounded-variable dual ratio test. α_j is
		// the pivot-row entry ρ·a_j; eligibility is by sign (moving x_j in
		// its allowed direction must push x[out] back toward its bound), the
		// minimum ratio |d_j|/|α_j| preserves dual feasibility, and ties
		// prefer the largest |α_j| for numerical stability (Bland mode: the
		// lowest eligible index).
		enter := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		var enterAlpha, enterD float64
		y := s.y
		for j := 0; j < p.n; j++ {
			st := s.status[j]
			if st == inBasis || lb[j] == ub[j] {
				continue
			}
			alpha := 0.0
			d := p.c[j]
			for k := p.colStart[j]; k < p.colStart[j+1]; k++ {
				r := p.colRow[k]
				v := p.colVal[k]
				alpha += rho[r] * v
				d -= y[r] * v
			}
			if alpha < pivotTol && alpha > -pivotTol {
				continue
			}
			var dd float64
			switch st {
			case atLower: // x_j may only increase
				if below != (alpha < 0) {
					continue
				}
				if d > 0 {
					dd = d // clamp tolerable dual infeasibility to a zero ratio
				}
			case atUpper: // x_j may only decrease
				if below != (alpha > 0) {
					continue
				}
				if d < 0 {
					dd = -d
				}
			case atFree: // either direction
				dd = math.Abs(d)
			}
			ratio := dd / math.Abs(alpha)
			if dualBland {
				enter, enterAlpha, enterD, bestRatio = j, alpha, d, ratio
				break
			}
			if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && math.Abs(alpha) > bestAlpha) {
				bestRatio, bestAlpha = ratio, math.Abs(alpha)
				enter, enterAlpha, enterD = j, alpha, d
			}
		}
		if enter < 0 {
			// No column can repair the violated row: every eligible move is
			// blocked by sign, so the current resting values already extremize
			// x[out] — the node is infeasible.
			return lpInfeasible, nil
		}
		// Step length lands the leaving variable exactly on its violated
		// bound. The entering variable may overshoot its own far bound; as a
		// basic variable that is a legal intermediate state the next
		// iterations repair.
		var delta float64
		if below {
			delta = s.x[out] - lb[out]
		} else {
			delta = s.x[out] - ub[out]
		}
		t := delta / enterAlpha
		s.ftran(enter)
		w := s.w
		s.x[enter] += t
		for i := 0; i < m; i++ {
			if wi := w[i]; wi != 0 {
				s.x[s.basis[i]] -= t * wi
			}
		}
		if below {
			s.x[out], s.status[out] = lb[out], atLower
		} else {
			s.x[out], s.status[out] = ub[out], atUpper
		}
		s.basis[leave] = enter
		s.status[enter] = inBasis
		if bestRatio == 0 {
			s.stats.Degenerate++
		}
		pivW := w[leave]
		if !s.lu.update(leave, w) {
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			s.computeDuals()
			s.resetDevex()
			refactorCountdown = refactorInterval
		} else {
			// Row leave of the new inverse is rho/pivot, so the rank-1 dual
			// repair reuses the pivot row already in hand.
			if enterD != 0 {
				f := enterD / pivW
				for k, v := range rho {
					if v != 0 {
						y[k] += f * v
					}
				}
			}
			// Dual Devex: the pivot column w prices every row's weight
			// against the reference weight of the leaving row.
			dr := s.dwt[leave] / (pivW * pivW)
			for i := 0; i < m; i++ {
				if i == leave {
					continue
				}
				if wi := w[i]; wi != 0 {
					if cand := wi * wi * dr; cand > s.dwt[i] {
						s.dwt[i] = cand
					}
				}
			}
			if dr < 1 {
				dr = 1
			}
			s.dwt[leave] = dr
		}
		// Degeneracy control: a zero dual step across a string of pivots is
		// the cycling precondition; arm Bland's rule (lowest-index row and
		// column) after a stall, like the primal phase does.
		if !dualBland && bestRatio*math.Abs(delta) > 1e-12 {
			stall = 0
		} else {
			stall++
			if stall > 3*m+50 {
				dualBland = true
			}
		}
	}
}
