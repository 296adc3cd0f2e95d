package compiler

import (
	"cmp"
	"slices"

	"tetrisched/internal/slab"
	"tetrisched/internal/strl"
)

// GreedyRound converts an LP relaxation point into an integral candidate by
// walking jobs in decreasing order of the LP mass on their own options (see
// jobMass; ties in batch order, which is priority order) and granting each its
// highest-scoring feasible option against a running capacity ledger. It is
// handed to the MILP solver as the incumbent heuristic: structure-aware
// rounding costs no LP solve and gives the branch-and-bound search strong
// incumbents, which is what lets gap-based termination stop early (§3.2.2).
//
// Jobs whose expressions are not a single nCk or a MAX over nCk leaves (the
// shapes the STRL generator emits) are skipped; the solver re-validates the
// returned point, so this is purely a heuristic. Safe for concurrent use.
func (c *Compiled) GreedyRound(x []float64) []float64 {
	return c.RoundInPlace(slices.Clone(x))
}

// RoundInPlace is GreedyRound writing its candidate over x and returning it
// (nil, with x in no particular state, when no job could be granted): the
// solver calls its heuristic at every node of the search on a point that is
// the heuristic's to overwrite, so a steady-state call allocates nothing — the
// ledger and the orderings come from the Scratch and go back to it. Safe for
// concurrent use on different points.
func (c *Compiled) RoundInPlace(x []float64) []float64 {
	return c.roundInPlace(x, &roundScope{nVars: c.Model.NumVars()})
}

// GreedyRound is the component-space analogue of Compiled.GreedyRound: it
// rounds an LP relaxation point of the component model into an integral
// candidate covering only this component's jobs. Safe for concurrent use,
// like the full-model version, so each concurrent sub-solve can carry its
// own heuristic.
func (cc *Component) GreedyRound(x []float64) []float64 {
	return cc.RoundInPlace(slices.Clone(x))
}

// RoundInPlace is the component-space analogue of Compiled.RoundInPlace.
func (cc *Component) RoundInPlace(x []float64) []float64 {
	return cc.parent.roundInPlace(x, &cc.scope)
}

// roundScope is the part of a batch one greedy rounding may touch: the whole
// batch, or one component of it — a component's walk is restricted to its own
// jobs so a candidate never claims capacity a different component's solve is
// entitled to. It is worked out once, at decomposition, so that a heuristic
// call copies only the availability rows it can change and reads and writes
// vectors in the component's own variable space.
type roundScope struct {
	nVars int
	// jobs lists the batch indices of the scope's jobs, ascending, and
	// shift[i] is what to subtract from a full-model variable of jobs[i] to
	// get its index in the scope's model. Both nil: every job, no shift.
	jobs  []int
	shift []int
	// groups lists the partition groups the jobs' non-culled leaves
	// reference, ascending, and groupRow maps a group to its row in a ledger
	// over just those. A nil groupRow: a ledger over every group, in place.
	groups   []int
	groupRow []int32
}

// newScope builds the scope of a component's jobs. With sliced false the
// component is the whole batch and keeps the parent's variable space and a
// ledger over every group.
func (c *Compiled) newScope(jobs []int, sliced bool) roundScope {
	scr := c.scr
	sc := roundScope{nVars: c.Model.NumVars(), jobs: jobs}
	const absent, present = -1, -2
	row := scr.int32s.Take(len(c.Part.Groups))
	for g := range row {
		row[g] = absent
	}
	if sliced {
		sc.shift = scr.ints.Take(len(jobs))
		sc.nVars = 0
	}
	nGroups := 0
	mark := func(g int) {
		if row[g] == absent {
			row[g] = present
			nGroups++
		}
	}
	for i, j := range jobs {
		if sliced {
			sc.shift[i] = c.job[j].varLo - sc.nVars
			sc.nVars += c.job[j+1].varLo - c.job[j].varLo
		}
		recs := c.jobLeaves(j)
		for li := range recs {
			rec := &recs[li]
			switch {
			case rec.culled:
			case rec.single:
				mark(rec.group)
			default:
				for _, pv := range c.partsOf(rec) {
					mark(pv.group)
				}
			}
		}
	}
	sc.groups = scr.ints.Take(nGroups)[:0]
	for g := range row {
		if row[g] == present {
			row[g] = int32(len(sc.groups))
			sc.groups = append(sc.groups, g)
		}
	}
	if sliced {
		sc.groupRow = row
	}
	return sc
}

// roundBuf is the working memory of one rounding, kept by the Scratch between
// calls: buffers keep their capacity and a call resizes them.
type roundBuf struct {
	remain []int64
	order  []int
	mass   []float64
	opts   []roundOption
}

// takeRoundBuf borrows a rounding's working memory; concurrent sub-solves round
// at the same time, so there is a list of them.
func (sc *Scratch) takeRoundBuf() *roundBuf {
	sc.roundMu.Lock()
	defer sc.roundMu.Unlock()
	if n := len(sc.roundFree); n > 0 {
		b := sc.roundFree[n-1]
		sc.roundFree = sc.roundFree[:n-1]
		return b
	}
	return new(roundBuf)
}

func (sc *Scratch) putRoundBuf(b *roundBuf) {
	sc.roundMu.Lock()
	sc.roundFree = append(sc.roundFree, b)
	sc.roundMu.Unlock()
}

// rounding is the state of one rounding.
type rounding struct {
	c      *Compiled
	sc     *roundScope
	x      []float64 // the relaxation point, in the scope's variable space, and then the candidate
	remain []int64   // capacity ledger: a row of h slices per group in scope
	h      int
}

// job returns the batch index of the scope's i-th job and its variable shift.
func (r *rounding) job(i int) (job, shift int) {
	switch {
	case r.sc.jobs == nil:
		return i, 0
	case r.sc.shift == nil:
		return r.sc.jobs[i], 0
	}
	return r.sc.jobs[i], r.sc.shift[i]
}

// jobMass is the LP mass on the i-th job's options: the sum of x over its
// non-culled leaf indicators, which for a bare nCk is the job's own indicator
// (a MAX job has none).
func (r *rounding) jobMass(i int) float64 {
	j, shift := r.job(i)
	mass := 0.0
	recs := r.c.jobLeaves(j)
	for li := range recs {
		if rec := &recs[li]; !rec.culled {
			mass += r.x[int(rec.ind)-shift]
		}
	}
	return mass
}

// row is the ledger row of a partition group.
func (r *rounding) row(g int) []int64 {
	if r.sc.groupRow != nil {
		g = int(r.sc.groupRow[g])
	}
	return r.remain[g*r.h : (g+1)*r.h]
}

// roundOption is one candidate leaf of the job being rounded.
type roundOption struct {
	rec   *leafRecord
	x     float64 // LP value of its indicator
	value float64 // its STRL value
}

func (c *Compiled) roundInPlace(x []float64, sc *roundScope) []float64 {
	buf := c.scr.takeRoundBuf()
	defer c.scr.putRoundBuf(buf)
	r := rounding{c: c, sc: sc, x: x, h: int(c.opts.Horizon)}
	if sc.groupRow == nil {
		buf.remain = slab.Sized(buf.remain, len(c.avail)*r.h)
		for g, row := range c.avail {
			copy(buf.remain[g*r.h:], row)
		}
	} else {
		buf.remain = slab.Sized(buf.remain, len(sc.groups)*r.h)
		for i, g := range sc.groups {
			copy(buf.remain[i*r.h:], c.avail[g])
		}
	}
	r.remain = buf.remain
	nJobs := len(sc.jobs)
	if sc.jobs == nil {
		nJobs = len(c.jobs)
	}

	// Job order: LP mass on the job's options, descending (stable on index).
	// It is fixed before the first job's variables are overwritten.
	buf.order, buf.mass = slab.Sized(buf.order, nJobs), slab.Sized(buf.mass, nJobs)
	for i := range buf.order {
		buf.order[i], buf.mass[i] = i, r.jobMass(i)
	}
	slices.SortStableFunc(buf.order, func(a, b int) int { return cmp.Compare(buf.mass[b], buf.mass[a]) })

	granted := false
	for _, i := range buf.order {
		j, shift := r.job(i)
		// Option order: LP indicator value, then STRL value, descending. A
		// job's variables are its own contiguous range, so once its options are
		// read the range is the candidate's: zero but for a grant.
		opts := buf.opts[:0]
		if c.job[j].roundable {
			recs := c.jobLeaves(j)
			for li := range recs {
				if rec := &recs[li]; !rec.culled {
					opts = append(opts, roundOption{rec: rec, x: x[int(rec.ind)-shift], value: leafValue(rec.expr)})
				}
			}
			slices.SortStableFunc(opts, func(a, b roundOption) int {
				return cmp.Or(cmp.Compare(b.x, a.x), cmp.Compare(b.value, a.value))
			})
			buf.opts = opts
		}
		clear(x[c.job[j].varLo-shift : c.job[j+1].varLo-shift])
		for _, o := range opts {
			if !r.grant(o.rec, shift, false) {
				continue
			}
			// The granted leaf's partition variables and its indicator (for a
			// MAX child the child's, for a bare leaf the job's): the whole
			// path of a roundable job.
			r.grant(o.rec, shift, true)
			x[int(o.rec.ind)-shift] = 1
			granted = true
			break
		}
	}
	if !granted {
		return nil
	}
	return x[:sc.nVars]
}

// roundable reports whether the job expression has the generator's shape.
func roundable(e strl.Expr) bool {
	switch n := e.(type) {
	case *strl.NCk:
		return true
	case *strl.Max:
		for _, k := range n.Kids {
			if _, ok := k.(*strl.NCk); !ok {
				return false
			}
		}
		return true
	}
	return false
}

func leafValue(e strl.Expr) float64 {
	switch l := e.(type) {
	case *strl.NCk:
		return l.Value
	case *strl.LnCk:
		return l.Value
	}
	return 0
}

// grant draws the leaf's full k from the remaining capacity, group by group
// in the leaf's order, and reports whether it fits. Without commit it only
// looks; with commit (after a look that succeeded) it books the usage in the
// ledger and writes the per-group counts into the candidate.
func (r *rounding) grant(rec *leafRecord, shift int, commit bool) bool {
	s, e, ok := r.c.slices(rec.start, rec.dur)
	if !ok {
		return false
	}
	need := rec.k
	parts := r.c.partsOf(rec) // empty for a single-group leaf
	nGroups := len(parts)
	if rec.single {
		nGroups = 1
	}
	for gi := 0; gi < nGroups && need > 0; gi++ {
		group := rec.group
		if !rec.single {
			group = parts[gi].group
		}
		row := r.row(group)[s:e]
		n := int(slices.Min(row))
		if n > need {
			n = need
		}
		if n <= 0 {
			continue
		}
		need -= n
		if !commit {
			continue
		}
		for t := range row {
			row[t] -= int64(n)
		}
		if !rec.single {
			r.x[int(parts[gi].id)-shift] = float64(n)
		}
	}
	return need == 0
}

// Seed writes the component's warm start — "the same choices as last cycle" —
// into buf and returns it. want[j] names, for batch job j, which of the job's
// leaves (counted in tree order, culled ones included) to grant, or is negative
// for none. A wanted leaf is written as the rounding writes a grant: its k
// nodes drawn group by group in the leaf's order, its indicator set to 1. Each draws on the whole availability, not on a ledger, so two
// seeded jobs may overdraw a group between them; the solver validates a seed
// before it accepts it. A culled leaf has no variables to write, and a job that
// is not roundable has a path the rounding does not know: neither is seeded.
//
// Seed returns nil when no job of the component is seeded, having neither
// allocated nor cleared anything: the component has no warm start, which an
// all-zero vector (a zero-value incumbent) would not say. Otherwise the seed
// is written over buf, which is reallocated only if it has not the capacity
// for the component's variables, so a caller that keeps what is returned
// allocates once.
func (cc *Component) Seed(buf []float64, want []int32) []float64 {
	c := cc.parent
	r := rounding{c: c, sc: &cc.scope}
	var x []float64
	for i := range cc.Jobs {
		j, shift := r.job(i)
		recs := c.jobLeaves(j)
		w := int(want[j])
		if w < 0 || w >= len(recs) || recs[w].culled || !c.job[j].roundable {
			continue
		}
		if x == nil {
			x = slab.Sized(buf, cc.scope.nVars)
			clear(x)
		}
		// A leaf that survived culling fits the availability it was tested
		// against: need reaches 0 within its groups.
		rec := &recs[w]
		s, e, _ := c.slices(rec.start, rec.dur)
		need := rec.k
		for _, pv := range c.partsOf(rec) { // none for a single-group leaf: its count is k·ind
			n := min(need, int(c.minAvail(pv.group, s, e)))
			x[int(pv.id)-shift] = float64(n)
			need -= n
		}
		x[int(rec.ind)-shift] = 1
	}
	return x
}
