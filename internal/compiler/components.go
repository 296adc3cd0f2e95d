package compiler

import (
	"slices"

	"tetrisched/internal/milp"
	"tetrisched/internal/slab"
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
	// parent's model itself (zero-copy); otherwise its variables and rows
	// sliced out, in the parent's order, into memory of the parent's Scratch.
	// Like Jobs and VarMap it is valid for as long as the parent Compiled is.
	Model *milp.Model
	// VarMap maps each component variable index to its index in the parent
	// model. Nil means the identity mapping (single-component case).
	VarMap []int
	// Shard is the forced-partition class this component belongs to when the
	// decomposition was given an assignment, or -1 for the natural
	// decomposition. Observability only; the solver ignores it.
	Shard int

	parent *Compiled
	scope  roundScope // what GreedyRound may touch, fixed at decomposition
}

// Stale reports whether the batch the component was cut from has been
// compiled over (Compiled.Stale).
func (cc *Component) Stale() bool { return cc.parent.Stale() }

// Components is the natural decomposition, ForcedComponents(nil, -1).
func (c *Compiled) Components() []*Component { return c.ForcedComponents(nil, -1) }

// ForcedComponents is AppendComponents into fresh headers, with a fresh
// pointer to each.
func (c *Compiled) ForcedComponents(assign []int, merge int) []*Component {
	comps := c.AppendComponents(nil, assign, merge)
	out := make([]*Component, len(comps))
	for i := range comps {
		out[i] = &comps[i]
	}
	return out
}

// AppendComponents partitions the compiled batch into independently solvable
// sub-MILPs, one Component per connected component of the
// variable↔constraint graph, ordered by each component's smallest job index
// (so the result is deterministic for a given model); a batch that does not
// decompose is a single Component wrapping the original model. It appends
// the headers, by value, to dst, which grows only when it is too small. What
// they point to lives as long as c does: decomposing is a write to c's
// Scratch (see Scratch for what that excludes). The compiler never reuses
// header memory, so a header reports Stale for exactly the Compiled it was
// cut from, whoever owns the slice.
//
// A nil assign is the natural decomposition. Otherwise assign[j] names the
// class (shard) of batch job j, and jobs in different classes are kept in
// different components even when a shared supply row couples them. A shared
// row that is cut this way is a ≤-row with nonnegative coefficients (the only
// cross-job rows the compiler emits), so each side receives a restricted
// copy — its own terms against the row's full RHS. The copies are optimistic:
// each class plans as if it had the row's whole capacity, and the caller
// resolves the resulting over-commits when the per-class plans are applied
// (the sharded scheduler does this at commit time; see internal/shard). A
// cross-class row that is not safe to cut (not ≤, or a negative coefficient —
// none today) couples its jobs, which merges their classes for this batch and
// keeps the decomposition exact rather than silently unsound. With an assign,
// merge ≥ 0 names one class whose jobs are also forced into one component —
// the sharded scheduler's gang arbitrator, which serializes jobs spanning
// shards through one solve. Natural connected-component refinement still
// applies within each class, so a one-class assignment reproduces the natural
// decomposition exactly.
func (c *Compiled) AppendComponents(dst []Component, assign []int, merge int) []Component {
	nj := len(c.jobs)
	if nj == 0 {
		return dst
	}
	if c.Stale() {
		// The slabs below now belong to another batch's components.
		panic("compiler: decomposing a Compiled whose Scratch has compiled again")
	}
	sc := c.scr
	sc.tmp.Rewind()
	nv := c.Model.NumVars()
	// varJob[v] = owning job; variables are created per-job contiguously.
	varJob := sc.tmp.Take(nv)
	for j := 0; j < nj; j++ {
		for v := c.job[j].varLo; v < c.job[j+1].varLo; v++ {
			varJob[v] = j
		}
	}

	// Union-find over jobs: every constraint ties together the jobs of all
	// variables it mentions — unless a forced partition cuts it.
	uf := sc.tmp.Take(nj)
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
	// rowComp is the row → component index: the owner of an uncut row, or one
	// of the two marks. A cut row is sliced across the forced partition
	// (restricted per-component copies instead of whole-row ownership).
	const cutRow, noRow = -1, -2
	rowComp := sc.tmp.Take(len(c.Model.Cons))
	anyCut := false
	for conIdx := range c.Model.Cons {
		con := &c.Model.Cons[conIdx]
		if len(con.Terms) < 2 {
			continue
		}
		if assign != nil && spansClasses(con.Terms, varJob, assign) && cuttable(con) {
			rowComp[conIdx], anyCut = cutRow, true
			continue
		}
		a := find(varJob[con.Terms[0].Var])
		for _, t := range con.Terms[1:] {
			if b := find(varJob[t.Var]); a != b {
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
	compOf := sc.tmp.Take(nj)
	rootComp := sc.tmp.Take(nj) // root job → its component + 1
	size := sc.tmp.Take(nj)[:0] // jobs per component
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
	// The headers are the caller's memory, and what they point to is the
	// Scratch's.
	n0 := len(dst)
	dst = slices.Grow(dst, nc)[:n0+nc]
	comps := dst[n0:]
	jobBuf := sc.ints.Take(nj) // every component's Jobs, cut from one array
	for ci, lo := 0, 0; ci < nc; ci++ {
		comps[ci] = Component{Jobs: jobBuf[lo : lo : lo+size[ci]], Shard: -1, parent: c}
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
		return dst
	}

	// Slice the parent model per component in two passes over its rows, not
	// one per component: the first counts what each component receives, so
	// all the sub-models' variables, rows and terms are each one exactly
	// sized cut of a slab; the second copies.
	nCons := sc.tmp.Take(nc)
	nTerms := sc.tmp.Take(nc)
	var sides []cutSide
	if anyCut {
		sc.sides = slab.Sized(sc.sides, nc)
		sides = sc.sides
	}
	for conIdx := range c.Model.Cons {
		con := &c.Model.Cons[conIdx]
		switch {
		case len(con.Terms) == 0:
			rowComp[conIdx] = noRow
		case rowComp[conIdx] == cutRow:
			tallySides(sides, c.Model, con, compOf, varJob)
			for ci := range sides {
				if sides[ci].keeps(con) {
					nCons[ci]++
					nTerms[ci] += sides[ci].terms
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
	totalCons, totalTerms := 0, 0
	for ci := range comps {
		totalCons += nCons[ci]
		totalTerms += nTerms[ci]
	}

	models := sc.models.Take(nc)
	subVars := sc.vars.Take(nv)
	subCons := sc.cons.Take(totalCons)
	rows := subRows{comps: comps, terms: sc.terms.Take(totalTerms), at: nTerms}
	// full2sub maps a parent variable to its index in its component's model.
	full2sub := sc.tmp.Take(nv)
	varMaps := sc.ints.Take(nv) // every component's VarMap, cut from one array
	for ci, vlo, clo, tlo := 0, 0, 0, 0; ci < nc; ci++ {
		cc := &comps[ci]
		n := 0
		for _, j := range cc.Jobs {
			n += c.job[j+1].varLo - c.job[j].varLo
		}
		cc.VarMap = varMaps[vlo : vlo : vlo+n]
		sub := &models[ci]
		sub.Vars = subVars[vlo : vlo : vlo+n]
		sub.Cons = subCons[clo : clo : clo+nCons[ci]]
		for _, j := range cc.Jobs {
			for v := c.job[j].varLo; v < c.job[j+1].varLo; v++ {
				full2sub[v] = len(cc.VarMap)
				cc.VarMap = append(cc.VarMap, v)
			}
			sub.Vars = append(sub.Vars, c.Model.Vars[c.job[j].varLo:c.job[j+1].varLo]...)
		}
		cc.Model = sub
		vlo, clo = vlo+n, clo+nCons[ci]
		rows.at[ci], tlo = tlo, tlo+nTerms[ci] // the count becomes the fill position
	}
	for conIdx := range c.Model.Cons {
		con := &c.Model.Cons[conIdx]
		switch ci := rowComp[conIdx]; ci {
		case noRow:
		case cutRow:
			tallySides(sides, c.Model, con, compOf, varJob)
			for ci := range sides {
				sides[ci].row = nil
				if sides[ci].keeps(con) {
					sides[ci].row = rows.add(ci, con, sides[ci].terms)
				}
				sides[ci].terms = 0 // now the copy's fill position
			}
			for _, t := range con.Terms {
				if s := &sides[compOf[varJob[t.Var]]]; s.row != nil {
					s.row[s.terms] = milp.Term{Var: milp.VarID(full2sub[t.Var]), Coef: t.Coef}
					s.terms++
				}
			}
		default:
			terms := rows.add(ci, con, len(con.Terms))
			for i, t := range con.Terms {
				terms[i] = milp.Term{Var: milp.VarID(full2sub[t.Var]), Coef: t.Coef}
			}
		}
	}
	return dst
}

// subRows appends rows to the sub-models of a decomposition. All their terms
// are one array, in which component ci's rows fill the window starting at
// at[ci]: a sub-model costs no allocation of its own.
type subRows struct {
	comps []Component
	terms []milp.Term
	at    []int
}

// add appends the parent row con, cut down to n terms, to component ci's
// model and returns the terms for the caller to fill in.
func (r *subRows) add(ci int, con *milp.Constraint, n int) []milp.Term {
	lo := r.at[ci]
	r.at[ci] += n
	row := r.terms[lo : lo+n : lo+n]
	sub := r.comps[ci].Model
	sub.Cons = append(sub.Cons, milp.Constraint{Terms: row, Op: con.Op, RHS: con.RHS})
	return row
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
func cuttable(con *milp.Constraint) bool {
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

// cutSide is one component's view of a cut cross-class row: its restricted
// copy holds its own terms against the row's full RHS. The sides are tallied
// before anything is set aside for them, because many copies are dropped.
type cutSide struct {
	terms  int         // terms of the row that land in the component
	maxUse float64     // their activity at every variable's upper bound
	row    []milp.Term // the copy being filled (nil: dropped)
}

func tallySides(sides []cutSide, parent *milp.Model, con *milp.Constraint, compOf, varJob []int) {
	clear(sides)
	for _, t := range con.Terms {
		s := &sides[compOf[varJob[t.Var]]]
		s.terms++
		s.maxUse += t.Coef * parent.Vars[t.Var].Ub
	}
}

// keeps reports whether the component receives a copy of the tallied row.
// Copies with no local term, or that cannot bind even at every local
// variable's upper bound, are dropped (mirroring the compiler's own
// non-binding supply-row elision).
func (s *cutSide) keeps(con *milp.Constraint) bool {
	return s.terms > 0 && s.maxUse > con.RHS
}
