package compiler

import (
	"math"
	"math/bits"
)

// This file computes a component's digest: a fingerprint of everything its
// sub-solve reads, so that two compilations can be compared component by
// component. The scheduler keys nothing on it (a kept coupling class is its own
// key, docs/SOLVER.md "The class table"); the benchmark's replay layer times it
// and the tests that compare compilations call it.
//
// The digest covers (a) the component's model mathematics and (b) everything
// the incumbent rounding consumes beyond the model: the per-leaf lowering
// records and the availability ledger of every partition group the component
// touches. Global group numbers shift when unrelated jobs come and go even
// though the component's own math is unchanged, so partition-group indices
// are renumbered by first appearance within the component before hashing.

// hash64 is an inline accumulator that folds one 64-bit word per step — a
// multiply and an xor of the 128-bit product's halves, so a difference in any
// bit of a word reaches every bit of the state; hash/fnv would cost a []byte
// round trip per write and, a byte at a time, eight multiplies per word.
type hash64 uint64

const (
	hashSeed hash64 = 14695981039346656037
	hashMul  uint64 = 0x9e3779b97f4a7c15
)

func (h *hash64) u64(v uint64) {
	hi, lo := bits.Mul64(uint64(*h)^v, hashMul)
	*h = hash64(hi ^ lo)
}

func (h *hash64) i64(v int64)   { h.u64(uint64(v)) }
func (h *hash64) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *hash64) bool(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

// ComponentFingerprint returns a canonical digest of everything a component
// sub-solve reads: the sliced model's mathematics (variable types, bounds and
// objective coefficients; constraint operators, right-hand sides and term
// lists, in emission order) plus the GreedyRound inputs — each job's leaf
// records (shape, k, start, dur, value, culled/single flags) and the
// availability row of every partition group those leaves reference. Equal
// fingerprints mean the sub-solves would run on byte-identical inputs, bar the
// seed. Each call hashes afresh.
func (c *Compiled) ComponentFingerprint(cc *Component) uint64 {
	h := hashSeed
	m := cc.Model
	h.i64(int64(m.NumVars()))
	for i := range m.Vars {
		v := &m.Vars[i]
		h.i64(int64(v.Type))
		h.f64(v.Lb)
		h.f64(v.Ub)
		h.f64(v.Obj)
	}
	h.i64(int64(len(m.Cons)))
	for i := range m.Cons {
		con := &m.Cons[i]
		h.i64(int64(con.Op))
		h.f64(con.RHS)
		h.i64(int64(len(con.Terms)))
		for _, t := range con.Terms {
			h.i64(int64(t.Var))
			h.f64(t.Coef)
		}
	}

	// Heuristic state: leaf records in compilation order, restricted to the
	// component's jobs (jobs hashed by position within the component, not by
	// batch index), with group indices renumbered by first appearance. The
	// first reference to a group also hashes its availability row — capacity
	// changes anywhere the component can place work invalidate the print.
	renum := make(map[int]int)
	group := func(g int) {
		ci, seen := renum[g]
		if !seen {
			ci = len(renum)
			renum[g] = ci
			h.bool(true)
			row := c.avail[g]
			h.i64(int64(len(row)))
			for _, n := range row {
				h.i64(n)
			}
		} else {
			h.bool(false)
		}
		h.i64(int64(ci))
	}
	for p, j := range cc.Jobs {
		recs := c.jobLeaves(j)
		for li := range recs {
			rec := &recs[li]
			h.i64(int64(p))
			h.bool(rec.linear)
			h.bool(rec.single)
			h.bool(rec.culled)
			h.i64(int64(rec.k))
			h.i64(rec.start)
			h.i64(rec.dur)
			h.f64(leafValue(rec.expr))
			if rec.culled {
				continue
			}
			if rec.single {
				group(rec.group)
			} else {
				h.i64(int64(rec.partN))
				for _, pv := range c.partsOf(rec) {
					group(pv.group)
				}
			}
		}
	}
	return uint64(h)
}
