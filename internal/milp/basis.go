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
	bs := &w.snaps.Take(1)[0]
	bs.basis, bs.status = w.int32s.Take(p.m), w.bytes.Take(p.n)
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
// factoring the same basis again with strict partial pivoting, and stays
// strict until it is next bound.
var errUnstableFactor = errors.New("milp: unstable LU factorization")
