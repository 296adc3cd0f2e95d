package milp

import (
	"container/heap"
	"math"
)

// Pseudocost branching.
//
// Most-fractional branching picks the variable whose LP value is closest to
// 0.5 — a static rule that knows nothing about which variables actually move
// the objective. Pseudocosts learn that online: every solved child records
// how much the LP objective degraded per unit of fractionality pushed away,
// keyed by (variable, direction). Branching then prefers variables whose
// history predicts large degradation on BOTH children — the "hard stuff
// first" ordering that shrinks trees, because a branch that hurts both ways
// tightens both subtrees' bounds at once.
//
// The table starts empty (reliability: with no observations at all the
// selector is exactly the historical most-fractional rule, and unobserved
// variables fall back to the table-wide average). Branching order never
// affects which solutions are feasible or optimal — only how fast the search
// proves them.

// BranchStats reports how branch variables were chosen during one Solve.
type BranchStats struct {
	// Pseudocost counts branchings decided by pseudocost scores.
	Pseudocost int64
	// Fractional counts branchings by the most-fractional rule, taken while
	// the table has no observation.
	Fractional int64
}

// Add sums b's counters into a.
func (a *BranchStats) Add(b *BranchStats) {
	a.Pseudocost += b.Pseudocost
	a.Fractional += b.Fractional
}

// pcTable accumulates per-variable, per-direction pseudocosts: the mean LP
// objective degradation per unit of fractionality, learned from solved
// children. It is read and written by evalNode only. The zero value is a table
// with no history, for no columns.
type pcTable struct {
	upSum, dnSum []float64
	upCnt, dnCnt []int32
	observations int64
}

func (w *Workspace) newPCTable(n int) pcTable {
	return pcTable{
		upSum: w.floats.take(n),
		dnSum: w.floats.take(n),
		upCnt: w.int32s.take(n),
		dnCnt: w.int32s.take(n),
	}
}

// fracVar is one fractional integer column of a node relaxation.
type fracVar struct {
	col int
	val float64
}

// gatherFractional lists the fractional integer columns of x into buf.
func gatherFractional(m *Model, x []float64, buf []fracVar) []fracVar {
	out := buf[:0]
	for i, v := range m.Vars {
		if v.Type == Continuous {
			continue
		}
		if math.Abs(x[i]-math.Round(x[i])) > intTol {
			out = append(out, fracVar{col: i, val: x[i]})
		}
	}
	return out
}

// noteBranchOutcome records a solved child's objective against the branching
// decision that created it. Infeasible/pruned children record nothing — their
// degradation is unbounded and would poison the mean.
func (s *search) noteBranchOutcome(node *bbNode, childObj float64) {
	if node.pcol < 0 {
		return
	}
	// A child's bound is its parent's LP objective.
	degrade := node.bound - childObj
	if degrade < 0 {
		degrade = 0 // drift: a child cannot beat its parent relaxation
	}
	per := degrade / node.pfrac
	if node.pup {
		s.pc.upSum[node.pcol] += per
		s.pc.upCnt[node.pcol]++
	} else {
		s.pc.dnSum[node.pcol] += per
		s.pc.dnCnt[node.pcol]++
	}
	s.pc.observations++
}

// selectBranch picks the branching column among the fractional candidates:
// pseudocost product score when the table has history, most-fractional
// otherwise. fracs is non-empty.
func (s *search) selectBranch(fracs []fracVar) (int, float64) {
	if s.pc.observations > 0 {
		// Table-wide mean degradations back unobserved directions, so a
		// variable with one strong observed side still outranks noise.
		var upAvg, dnAvg float64
		var upN, dnN int64
		for i := range s.pc.upCnt {
			upN += int64(s.pc.upCnt[i])
			dnN += int64(s.pc.dnCnt[i])
			upAvg += s.pc.upSum[i]
			dnAvg += s.pc.dnSum[i]
		}
		if upN > 0 {
			upAvg /= float64(upN)
		}
		if dnN > 0 {
			dnAvg /= float64(dnN)
		}
		const eps = 1e-6
		best, bestScore := -1, math.Inf(-1)
		var bestVal float64
		for _, fc := range fracs {
			f := fc.val - math.Floor(fc.val)
			up := upAvg
			if s.pc.upCnt[fc.col] > 0 {
				up = s.pc.upSum[fc.col] / float64(s.pc.upCnt[fc.col])
			}
			dn := dnAvg
			if s.pc.dnCnt[fc.col] > 0 {
				dn = s.pc.dnSum[fc.col] / float64(s.pc.dnCnt[fc.col])
			}
			score := math.Max(f*dn, eps) * math.Max((1-f)*up, eps)
			if score > bestScore {
				best, bestScore, bestVal = fc.col, score, fc.val
			}
		}
		s.branch.Pseudocost++
		return best, bestVal
	}
	// Historical rule: the integer variable farthest from integrality,
	// lowest index on ties (fracs is in ascending column order).
	best, bestDist := fracs[0].col, -1.0
	bestVal := fracs[0].val
	for _, fc := range fracs {
		f := fc.val - math.Floor(fc.val)
		if d := math.Min(f, 1-f); d > bestDist {
			best, bestDist, bestVal = fc.col, d, fc.val
		}
	}
	s.branch.Fractional++
	return best, bestVal
}

// pushChildren branches the node on column bv (relaxation value v, LP
// objective obj) and pushes both children, each holding its one tightening,
// the branching record noteBranchOutcome will consume when the child solves,
// and a reference to the node's basis snapshot (nil: the children solve cold).
func (s *search) pushChildren(node *bbNode, bv int, v, obj float64, snap *basisState) {
	f := v - math.Floor(v)
	if snap != nil {
		snap.refs = 2
	}
	down, up := s.ws.newNode(), s.ws.newNode()
	*down = bbNode{
		bound: obj, parent: node, warm: snap,
		pcol: bv, pup: false, bval: math.Floor(v + intTol), pfrac: math.Max(f, intTol),
	}
	*up = bbNode{
		bound: obj, parent: node, warm: snap,
		pcol: bv, pup: true, bval: math.Ceil(v - intTol), pfrac: math.Max(1-f, intTol),
	}
	heap.Push(s.h, down)
	heap.Push(s.h, up)
}
