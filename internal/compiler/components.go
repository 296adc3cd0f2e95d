package compiler

import (
	"tetrisched/internal/milp"
)

// Component is one independent sub-problem of a compiled batch: a maximal set
// of jobs whose variables are transitively connected through shared
// constraints. Jobs land in the same component exactly when some constraint —
// in practice a supply row over a (group, slice) cell both compete for —
// couples their variables; jobs whose candidate leaves touch disjoint node
// groups across the whole plan-ahead window (or whose shared supply rows were
// dropped as non-binding) end up in different components and can be solved as
// separate, much smaller MILPs with no loss of optimality.
//
// The detection is driven by the emitted constraints rather than the
// job↔equivalence-group structure alone, so presolve effects (culled leaves,
// dropped non-binding supply rows) decouple jobs that a purely structural
// analysis would still consider connected.
type Component struct {
	// Jobs holds the batch indices of this component's jobs, ascending.
	Jobs []int
	// Model is the component's MILP. For a single-component batch it is the
	// parent's model itself (zero-copy); otherwise a sliced copy.
	Model *milp.Model
	// VarMap maps each component variable index to its index in the parent
	// model. Nil means the identity mapping (single-component case).
	VarMap []int
	// Shard is the forced-partition class this component belongs to when the
	// decomposition was produced by ForcedComponents, or -1 for the natural
	// decomposition of Components. Observability only; the solver ignores it.
	Shard int

	parent *Compiled
	scope  roundScope // what GreedyRound may touch, fixed at decomposition

	// fp memoizes ComponentFingerprint. The component and its parent are
	// immutable once built, so the print is computed at most once even when
	// the compile cache carries the component across many cycles.
	fp    uint64
	fpSet bool
}

// Components partitions the compiled batch into independently solvable
// sub-MILPs. It returns one Component per connected component of the
// variable↔constraint graph, ordered by each component's smallest job index
// (so the result is deterministic for a given model). A batch that does not
// decompose returns a single Component wrapping the original model.
func (c *Compiled) Components() []*Component {
	return c.components(nil, -1)
}

// ForcedComponents is Components under an externally imposed job partition:
// assign[j] names the class (shard) of batch job j, and jobs in different
// classes are kept in different components even when a shared supply row
// couples them. A shared row that is cut this way is a ≤-row with nonnegative
// coefficients (the only cross-job rows the compiler emits), so each side
// receives a restricted copy — its own terms against the row's full RHS. The
// copies are optimistic: each class plans as if it had the row's whole
// capacity, and the caller is responsible for resolving the resulting
// over-commits when the per-class plans are applied (the sharded scheduler
// does this at commit time; see internal/shard). A cross-class row that is
// not safe to cut (not ≤, or a negative coefficient — none today) falls back
// to coupling its jobs, which merges their classes for this batch and keeps
// the decomposition exact rather than silently unsound.
//
// merge, when ≥ 0, names one class whose jobs are additionally forced into a
// single component regardless of natural connectivity — the sharded
// scheduler's gang arbitrator, which serializes jobs spanning shards through
// one solve. Pass merge < 0 to disable.
//
// Natural connected-component refinement still applies within each class, so
// a one-class assignment reproduces Components exactly.
func (c *Compiled) ForcedComponents(assign []int, merge int) []*Component {
	return c.components(assign, merge)
}

func (c *Compiled) components(assign []int, merge int) []*Component {
	nj := len(c.jobs)
	if nj == 0 {
		return nil
	}
	nv := c.Model.NumVars()
	// varJob[v] = owning job; variables are created per-job contiguously.
	varJob := make([]int, nv)
	for j := 0; j < nj; j++ {
		for v := c.job[j].varLo; v < c.job[j+1].varLo; v++ {
			varJob[v] = j
		}
	}

	// Union-find over jobs: every constraint ties together the jobs of all
	// variables it mentions — unless a forced partition cuts it.
	uf := make([]int, nj)
	for i := range uf {
		uf[i] = i
	}
	find := func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]] // path halving
			x = uf[x]
		}
		return x
	}
	// cut[i] marks parent constraint i as sliced across the forced partition
	// (restricted per-component copies instead of whole-row ownership). Nil
	// when no forced partition is in effect.
	var cut []bool
	for conIdx, con := range c.Model.Cons {
		if len(con.Terms) < 2 {
			continue
		}
		if assign != nil && spansClasses(con.Terms, varJob, assign) && cuttable(con) {
			if cut == nil {
				cut = make([]bool, len(c.Model.Cons))
			}
			cut[conIdx] = true
			continue
		}
		a := find(varJob[con.Terms[0].Var])
		for _, t := range con.Terms[1:] {
			b := find(varJob[t.Var])
			if a != b {
				uf[b] = a
			}
		}
	}
	if assign != nil && merge >= 0 {
		// Force every job of the merge class into one component (the gang
		// arbitrator): spanning gangs plan against each other in a single
		// model instead of optimistically double-booking shared capacity.
		first := -1
		for j := 0; j < nj; j++ {
			if assign[j] != merge {
				continue
			}
			if first < 0 {
				first = j
				continue
			}
			a, b := find(first), find(j)
			if a != b {
				uf[b] = a
			}
		}
	}

	// Group jobs by root, numbering components by first appearance so the
	// output order is stable.
	compOf := make([]int, nj)
	rootComp := make([]int, nj) // root job → its component + 1
	var size []int              // jobs per component
	for j := 0; j < nj; j++ {
		r := find(j)
		if rootComp[r] == 0 {
			size = append(size, 0)
			rootComp[r] = len(size)
		}
		compOf[j] = rootComp[r] - 1
		size[compOf[j]]++
	}
	nc := len(size)
	comps := make([]Component, nc)
	out := make([]*Component, nc)
	jobBuf := make([]int, nj) // every component's Jobs, cut from one array
	for ci, lo := 0, 0; ci < nc; ci++ {
		comps[ci] = Component{Jobs: jobBuf[lo : lo : lo+size[ci]], Shard: -1, parent: c}
		out[ci] = &comps[ci]
		lo += size[ci]
	}
	for j, ci := range compOf {
		comps[ci].Jobs = append(comps[ci].Jobs, j)
	}
	for ci := range comps {
		cc := &comps[ci]
		if assign != nil {
			cc.Shard = assign[cc.Jobs[0]]
		}
		cc.scope = c.newScope(cc.Jobs, nc > 1)
	}
	if nc == 1 {
		// Zero-copy: with one component every cut row's terms all live here,
		// so the parent model is the component model verbatim.
		comps[0].Model = c.Model
		return out
	}

	// Slice the parent model per component in two passes over its rows, not
	// one per component: the first counts what each component receives, so
	// every sub-model's variables, rows and term arena are allocated once at
	// their final size; the second copies. rowComp is the row → component
	// index: the owner of an uncut row, or one of the two marks below.
	const cutRow, noRow = -1, -2
	rowComp := make([]int, len(c.Model.Cons))
	nCons := make([]int, nc)
	nTerms := make([]int, nc)
	var sides cutSides
	if cut != nil {
		sides = cutSides{terms: make([]int, nc), maxUse: make([]float64, nc), rows: make([][]milp.Term, nc)}
	}
	for conIdx := range c.Model.Cons {
		con := &c.Model.Cons[conIdx]
		switch {
		case len(con.Terms) == 0:
			rowComp[conIdx] = noRow
		case cut != nil && cut[conIdx]:
			rowComp[conIdx] = cutRow
			sides.tally(c.Model, con, compOf, varJob)
			for ci := range sides.terms {
				if sides.keeps(ci, con) {
					nCons[ci]++
					nTerms[ci] += sides.terms[ci]
				}
			}
		default:
			// All of the constraint's variables belong to one component by
			// construction of the union-find.
			ci := compOf[varJob[con.Terms[0].Var]]
			rowComp[conIdx] = ci
			nCons[ci]++
			nTerms[ci] += len(con.Terms)
		}
	}

	// full2sub maps a parent variable to its index in its component's model.
	full2sub := make([]int, nv)
	varMaps := make([]int, nv) // every component's VarMap, cut from one array
	for ci, lo := 0, 0; ci < nc; ci++ {
		cc := &comps[ci]
		n := 0
		for _, j := range cc.Jobs {
			n += c.job[j+1].varLo - c.job[j].varLo
		}
		cc.VarMap = varMaps[lo : lo : lo+n]
		lo += n
		sub := milp.NewModel(c.Model.Sense)
		sub.Grow(n, nCons[ci], nTerms[ci])
		for _, j := range cc.Jobs {
			for v := c.job[j].varLo; v < c.job[j+1].varLo; v++ {
				full2sub[v] = len(cc.VarMap)
				cc.VarMap = append(cc.VarMap, v)
			}
			sub.Vars = append(sub.Vars, c.Model.Vars[c.job[j].varLo:c.job[j+1].varLo]...)
		}
		cc.Model = sub
	}
	for conIdx := range c.Model.Cons {
		con := &c.Model.Cons[conIdx]
		switch ci := rowComp[conIdx]; ci {
		case noRow:
		case cutRow:
			sides.slice(c.Model, con, comps, compOf, varJob, full2sub)
		default:
			terms := comps[ci].Model.AddRow(con.Name, len(con.Terms), con.Op, con.RHS)
			for i, t := range con.Terms {
				terms[i] = milp.Term{Var: milp.VarID(full2sub[t.Var]), Coef: t.Coef}
			}
		}
	}
	return out
}

// spansClasses reports whether a constraint's terms touch jobs in more than
// one forced-partition class.
func spansClasses(terms []milp.Term, varJob, assign []int) bool {
	first := assign[varJob[terms[0].Var]]
	for _, t := range terms[1:] {
		if assign[varJob[t.Var]] != first {
			return true
		}
	}
	return false
}

// cuttable reports whether slicing a row into per-class restricted copies
// with the full RHS keeps each copy a valid relaxation: only ≤-rows with
// nonnegative coefficients qualify (dropping terms can only loosen them).
func cuttable(con milp.Constraint) bool {
	if con.Op != milp.LE {
		return false
	}
	for _, t := range con.Terms {
		if t.Coef < 0 {
			return false
		}
	}
	return true
}

// cutSides is the per-component view of one cut cross-class row: each
// component's restricted copy holds its own terms against the row's full
// RHS. It is tallied before anything is allocated, because many copies are
// dropped.
type cutSides struct {
	terms  []int         // terms of the row that land in each component
	maxUse []float64     // their activity at every variable's upper bound
	rows   [][]milp.Term // slice's destination rows (nil: copy dropped)
}

func (s *cutSides) tally(parent *milp.Model, con *milp.Constraint, compOf, varJob []int) {
	clear(s.terms)
	clear(s.maxUse)
	for _, t := range con.Terms {
		ci := compOf[varJob[t.Var]]
		s.terms[ci]++
		s.maxUse[ci] += t.Coef * parent.Vars[t.Var].Ub
	}
}

// keeps reports whether component ci receives a copy of the tallied row.
// Copies with no local term, or that cannot bind even at every local
// variable's upper bound, are dropped (mirroring the compiler's own
// non-binding supply-row elision).
func (s *cutSides) keeps(ci int, con *milp.Constraint) bool {
	return s.terms[ci] > 0 && s.maxUse[ci] > con.RHS
}

// slice appends each kept restricted copy of the row to its component's
// model, terms in the parent's order.
func (s *cutSides) slice(parent *milp.Model, con *milp.Constraint, comps []Component, compOf, varJob, full2sub []int) {
	s.tally(parent, con, compOf, varJob)
	for ci := range comps {
		s.rows[ci] = nil
		if s.keeps(ci, con) {
			s.rows[ci] = comps[ci].Model.AddRow(con.Name, s.terms[ci], con.Op, con.RHS)
		}
	}
	clear(s.terms) // now each copy's fill position
	for _, t := range con.Terms {
		ci := compOf[varJob[t.Var]]
		if row := s.rows[ci]; row != nil {
			row[s.terms[ci]] = milp.Term{Var: milp.VarID(full2sub[t.Var]), Coef: t.Coef}
			s.terms[ci]++
		}
	}
}

// Lift scatters a component-space vector into a full-model vector (entries
// outside the component are left untouched).
func (cc *Component) Lift(sub, full []float64) {
	if cc.VarMap == nil {
		copy(full, sub)
		return
	}
	for i, fv := range cc.VarMap {
		full[fv] = sub[i]
	}
}

// Restrict projects a full-model vector onto the component's variables. Nil
// in, nil out.
func (cc *Component) Restrict(full []float64) []float64 {
	if full == nil {
		return nil
	}
	if cc.VarMap == nil {
		out := make([]float64, len(full))
		copy(out, full)
		return out
	}
	out := make([]float64, len(cc.VarMap))
	for i, fv := range cc.VarMap {
		out[i] = full[fv]
	}
	return out
}

// RestrictSeed projects a full-model warm-start vector onto the component,
// returning nil when the projection has no nonzero entry. Unlike Restrict, a
// support-free projection means "this component has no seed": handing the
// solver an all-zero vector would both plant a spurious zero-value incumbent
// in a sub-solve the seed never covered and let telemetry count it as a warm
// start.
func (cc *Component) RestrictSeed(full []float64) []float64 {
	out := cc.Restrict(full)
	for _, v := range out {
		if v != 0 {
			return out
		}
	}
	return nil
}

// GreedyRound is the component-space analogue of Compiled.GreedyRound: it
// rounds an LP relaxation point of the component model into an integral
// candidate covering only this component's jobs. Safe for concurrent use,
// like the full-model version, so each concurrent sub-solve can carry its
// own heuristic.
func (cc *Component) GreedyRound(x []float64) []float64 {
	return cc.parent.greedyRound(x, &cc.scope)
}
