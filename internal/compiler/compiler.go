// Package compiler translates STRL expressions into MILP models, following
// Algorithm 1 of the TetriSched paper, and decodes solver output back into
// per-leaf resource grants.
//
// Time is discretized: leaf Start/Dur are in scheduling quanta relative to
// the current cycle (start 0 = now), and the plan-ahead window spans slices
// [0, Horizon). Space is reduced by the equivalence-set partitioner: the
// cluster is refined against every equivalence set referenced this cycle, so
// the model tracks integer node *counts* per partition group rather than
// individual machines. Leaves whose set intersects a single group are
// presolved away entirely (their partition variable is exactly k·I), which is
// the dominant case and keeps models small.
package compiler

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

// Options configures a compilation.
type Options struct {
	// Universe is the cluster size (node count).
	Universe int
	// Horizon is the number of time slices in the plan-ahead window; leaves
	// must start within [0, Horizon). Occupancy beyond the window is
	// unconstrained, mirroring the paper's bounded plan-ahead.
	Horizon int64
	// ReleaseAt[i] is the slice at which node i becomes free (0 = free now).
	// Nil means every node is free. Entries beyond Horizon keep the node
	// unavailable for the whole window.
	ReleaseAt []int64
	// BusyAt, if non-nil, marks additional per-slice unavailability (e.g.
	// tentative claims made earlier in a greedy scheduling pass). A node is
	// available at slice t iff t ≥ ReleaseAt[n] and !BusyAt(n, t).
	BusyAt func(node int, slice int64) bool
	// Within, if non-nil, is the set of nodes the batch may use — every leaf
	// set must lie inside it — and the cluster is partitioned over it instead
	// of over all Universe nodes: a batch that can only ever touch a corner of
	// the cluster pays for that corner. The partition groups inside it, their
	// order and so the emitted model are those of a compilation over every
	// node; only the group of nodes no leaf names is gone. The set is read
	// during Compile and not retained.
	Within *bitset.Set
}

// partVar is one integer partition variable: the node count a leaf draws
// from one group.
type partVar struct {
	group int
	id    milp.VarID
}

// leafRecord captures how one STRL leaf was lowered into the model.
type leafRecord struct {
	expr   strl.Expr
	start  int64
	dur    int64
	ind    milp.VarID // controlling indicator (shared along MIN paths); noVar when culled
	job    int
	k      int
	group  int // valid when single
	partLo int // valid when !single: Compiled.parts[partLo:partLo+partN]
	partN  int
	linear bool
	single bool // presolved: count is k·ind in group
	culled bool // provably unsatisfiable within the window: the leaf has no variables
}

// noVar stands where a variable would be had its subtree been lowered: the
// indicator of a culled leaf.
const noVar milp.VarID = -1

// A ghost is the term a partition variable would have in its group's supply
// rows had the group a node free throughout the leaf's slices. Such a variable
// could only be 0, so the model has none, but its term still decides which
// jobs a supply row ties together and where ForcedComponents cuts it: without
// it, rows that tied a job to its neighbours, or spanned two classes, would
// split the batch differently, and the solves within the gap and the work
// budget would pick other schedules. In a supply cell a ghost stands as the
// term of the negative variable ghostVar(i), i counting the batch's ghosts
// (which job each belongs to is Scratch.ghostJob[i]); an emitted supply row
// keeps its ghosts aside, in Compiled.ghosts.
func ghostVar(i int) milp.VarID { return milp.VarID(-2 - i) }

// ghostTerm records that the model's row carries a ghost of the job.
type ghostTerm struct{ row, job int32 }

// jobRecord locates one job's share of the compiled batch. Everything the
// compiler emits is per-job contiguous and in the order gen visits the job's
// tree, so a job's variables and leaf records are each the range from its
// record to the next job's; the slice of records ends with a sentinel holding
// the totals.
type jobRecord struct {
	varLo     int  // first model variable: the job's own indicator, if it has one (Compile)
	leafLo    int  // first entry of Compiled.leaves
	roundable bool // GreedyRound and Seed handle the job's shape
}

// Compiled is the result of compiling a batch of job expressions. It is a
// view of memory its Scratch owns — the model, the lowering records, the
// availability grid and whatever Components and ForcedComponents fill — and is
// valid until that Scratch's next Compile, which builds the next batch in the
// same memory (Stale reports that it has happened). The package-level Compile
// builds in a Scratch of its own, so what it returns is never invalidated.
type Compiled struct {
	// Model is the MILP to hand to the solver (maximize).
	Model *milp.Model
	// Part is the cycle's partitioning of the cluster; like the model, it is
	// the Scratch's.
	Part *cluster.Partitioning

	opts   Options
	jobs   []strl.Expr
	job    []jobRecord  // len(jobs)+1, see jobRecord
	leaves []leafRecord // depth-first within a job, jobs in batch order
	parts  []partVar    // every leaf's partition variables, see leafRecord
	ghosts []ghostTerm  // every supply row's ghosts, by row ascending
	avail  [][]int64    // [group][slice]
	scr    *Scratch     // the memory all of the above lives in
	epoch  uint64       // scr's epoch when this batch was compiled
}

// Stale reports whether the Scratch that built c has compiled again: c's
// model, records and components then describe some other batch, or half of
// one, and must not be read.
func (c *Compiled) Stale() bool { return c.epoch != c.scr.epoch }

// partsOf returns the leaf's partition variables.
func (c *Compiled) partsOf(rec *leafRecord) []partVar {
	return c.parts[rec.partLo : rec.partLo+rec.partN]
}

// Scratch owns the memory of one compiled batch at a time: Compile lowers
// straight into it and returns a Compiled that is that memory, and the next
// Compile on the same Scratch overwrites it. How many variables, rows and
// terms a batch lowers to is only known once it is lowered (it swings by a
// fifth from one cycle to the next on the same backlog), so every buffer keeps
// its capacity from compilation to compilation and a steady-state cycle
// allocates none of it again; nothing is reserved before the first Compile.
// The zero value is ready to use. A Scratch, its current Compiled's
// Components and ForcedComponents included, must not be used from more than
// one goroutine at a time; reading a Compiled and its Components (Decode,
// GreedyRound, solving the models) is safe from many.
type Scratch struct {
	epoch uint64 // counts Compile calls; a Compiled of an earlier one is stale

	// Build-time only.
	universe *bitset.Set
	eqsets   []*bitset.Set
	uses     []supplyUse // every supply term, once, in emission order (addUse)
	events   []int32     // where uses start (u) and end (^u), by group, slice and emission (sortEvents)
	eventAt  []int32     // events[eventAt[k]:eventAt[k+1]] happen in group g at slice t, k = g*(h+1)+t
	live     []int32     // the uses in the supply cell of the slice being emitted, in emission order
	cell     []milp.Term // their terms
	spare    []int32     // the memory of the next slice's live
	spareRow []milp.Term // and of its cell
	demand   []milp.Term // row build buffer (AddConstraint copies)
	kids     []milp.Term // MAX/SUM child-indicator rows, a stack across nesting levels
	obj      []milp.Term // objective contribution of the subtree being lowered
	kept     []keptRow   // the supply rows of the group being emitted
	keptLive []int32     // their cells' uses back to back
	ghostJob []int32     // the job of each ghost in the supply cells (ghostVar)
	nl       int         // leaf records passed so far: the next one to lower
	dead     []bool      // per node of the batch in visiting order: its subtree is left out (markDead)
	nn       int         // nodes passed so far: the next one to lower or skip

	// What the current Compiled is made of.
	model     milp.Model
	part      cluster.Partitioning
	job       []jobRecord
	leaves    []leafRecord
	parts     []partVar
	ghosts    []ghostTerm
	avail     [][]int64
	availFlat []int64

	// What its decompositions are made of (components.go): every one since
	// the last Compile, so the slabs are rewound there and only there.
	ints   slab[int]   // Jobs, VarMaps, round scopes
	int32s slab[int32] // round scopes' group → ledger row maps
	vars   slab[milp.Variable]
	cons   slab[milp.Constraint]
	terms  slab[milp.Term]
	models slab[milp.Model]
	tmp    slab[int] // one decomposition's working arrays, rewound by each
	sides  []cutSide

	// Working memory of the roundings in flight (greedy.go); the one part of a
	// Scratch that readers of a Compiled write, hence the lock.
	roundMu   sync.Mutex
	roundFree []*roundBuf
}

// slab hands out zeroed slices of one element type from an array that is kept
// across rewinds, the discipline of milp.Workspace's slabs: a request that
// does not fit starts a new array, at least twice the size, and is served from
// that, so a slab converges on the largest batch it has seen and then
// allocates nothing. Slices handed out stay valid until the rewind — those cut
// from an earlier array keep it alive that long.
type slab[T any] struct {
	buf  []T
	used int // elements of buf handed out
}

func (s *slab[T]) take(n int) []T {
	if n > len(s.buf)-s.used {
		s.buf, s.used = make([]T, max(n, 2*len(s.buf))), 0
	}
	s.used += n
	return s.buf[s.used-n : s.used : s.used]
}

func (s *slab[T]) rewind() {
	clear(s.buf[:s.used])
	s.used = 0
}

// sized returns buf with length n and unspecified contents, reallocated —
// with the slabs' quarter of headroom, for a backlog that grows a little
// every cycle — only when it is too small.
func sized[T any](buf []T, n int) []T {
	if n > cap(buf) {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// A supplyUse is a term in group's supply cells over slices [s, e). w is the
// most nodes it can take, coefficient (gang width or 1) times upper bound (a
// node count), 0 for a ghost: a whole number, so its sums are exact.
type supplyUse struct {
	term           milp.Term
	group, s, e, w int32
}

// keptRow is a supply row of the group being emitted: its slice and cell's uses, keptLive[lo:hi].
type keptRow struct{ t, lo, hi int32 }

// GroupCount is a node count drawn from one partition group.
type GroupCount struct{ Group, N int }

// LeafGrant is a decoded allocation for one leaf: how many nodes it receives
// from each partition group.
type LeafGrant struct {
	Job    int
	Leaf   strl.Expr
	Start  int64
	Dur    int64
	Counts []GroupCount // the groups drawn from, ascending, each with a positive count
	Total  int
}

// Compile lowers one STRL expression per pending job into a single MILP.
// The top level is an implicit SUM across jobs, each with its own indicator,
// exactly as the scheduler aggregates pending requests (§3.2) — except where
// the indicator could only be 1: a job rooted at a MAX or SUM has none, its
// choice row bounding the children by a constant, and a job with nothing to
// offer has no variable at all.
func Compile(jobs []strl.Expr, opts Options) (*Compiled, error) {
	sc := new(Scratch)
	c, err := sc.Compile(jobs, opts)
	// Nothing compiles on sc again: keep only what c is made of.
	sc.universe, sc.eqsets, sc.uses, sc.events, sc.eventAt, sc.live, sc.cell, sc.spare, sc.spareRow, sc.demand, sc.kids, sc.obj, sc.kept, sc.keptLive, sc.dead, sc.ghostJob = nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil
	return c, err
}

// Compile is the package-level Compile into this Scratch's memory, which
// invalidates the Compiled it returned before (see Compiled). The emitted
// model is byte-identical to a fresh compilation: the Scratch only decides
// where it lives.
func (sc *Scratch) Compile(jobs []strl.Expr, opts Options) (*Compiled, error) {
	if opts.Universe <= 0 {
		return nil, fmt.Errorf("compiler: universe must be positive")
	}
	if opts.Horizon <= 0 {
		return nil, fmt.Errorf("compiler: horizon must be positive")
	}
	if opts.ReleaseAt != nil && len(opts.ReleaseAt) != opts.Universe {
		return nil, fmt.Errorf("compiler: ReleaseAt has %d entries for %d nodes", len(opts.ReleaseAt), opts.Universe)
	}
	if opts.Within != nil && opts.Within.Cap() != opts.Universe {
		return nil, fmt.Errorf("compiler: Within is a set over %d nodes for %d nodes", opts.Within.Cap(), opts.Universe)
	}
	for _, j := range jobs {
		if err := strl.Validate(j); err != nil {
			return nil, err
		}
	}

	// From here on the previous Compiled is being overwritten.
	sc.epoch++
	// One record and one equivalence set per leaf, in the order gen visits
	// them; the cluster is partitioned against the sets, in the Scratch's
	// Partitioning, which retains neither input, so both are poolable.
	eqsets, leaves := sc.eqsets[:0], sc.leaves[:0]
	jid := 0
	note := func(x strl.Expr) {
		switch l := x.(type) {
		case *strl.NCk:
			eqsets = append(eqsets, l.Set)
			leaves = append(leaves, leafRecord{job: jid, expr: l, k: l.K, start: l.Start, dur: l.Dur, ind: noVar})
		case *strl.LnCk:
			eqsets = append(eqsets, l.Set)
			leaves = append(leaves, leafRecord{job: jid, expr: l, linear: true, k: l.K, start: l.Start, dur: l.Dur, ind: noVar})
		}
	}
	for j, job := range jobs {
		jid = j
		strl.Walk(job, note)
	}
	sc.eqsets, sc.leaves = eqsets, leaves
	within := opts.Within
	if within == nil {
		if sc.universe == nil || sc.universe.Cap() != opts.Universe {
			sc.universe = bitset.New(opts.Universe)
			sc.universe.Fill()
		}
		within = sc.universe
	}
	opts.Within = nil
	part := &sc.part
	part.Refine(within, eqsets)
	sc.uses, sc.obj, sc.kids, sc.ghostJob, sc.nl, sc.nn = sc.uses[:0], sc.obj[:0], sc.kids[:0], sc.ghostJob[:0], 0, 0
	sc.ints.rewind()
	sc.int32s.rewind()
	sc.vars.rewind()
	sc.cons.rewind()
	sc.terms.rewind()
	sc.models.rewind()
	sc.model.Reset(milp.Maximize)
	sc.job = sized(sc.job, len(jobs)+1)
	// The Compiled itself is the one thing allocated per compilation: a
	// recycled one could not tell that it is stale.
	c := &Compiled{
		Model:  &sc.model,
		Part:   part,
		opts:   opts,
		jobs:   jobs,
		job:    sc.job[:0],
		leaves: leaves,
		parts:  sc.parts[:0],
		ghosts: sc.ghosts[:0],
		scr:    sc,
		epoch:  sc.epoch,
	}
	c.computeAvail()
	c.cullLeaves()

	for jid, job := range jobs {
		c.job = append(c.job, jobRecord{varLo: c.Model.NumVars(), leafLo: sc.nl, roundable: roundable(job)})
		if sc.dead[sc.nn] {
			// Nothing of the job can be granted: nothing of it is lowered, not
			// even an indicator, which could only sit at 1 worth nothing.
			c.skip(job)
			continue
		}
		ind := noVar
		switch job.(type) {
		case *strl.Max, *strl.Sum:
			// A root choice has no indicator of its own: it would have no
			// objective and one row, Σ kids ≤ n·I, that only pushes it up, so
			// it could always be 1 (genChoice).
		default:
			ind = c.Model.AddVarNamed(milp.Namef("I_j%d", jid), milp.Binary, 0, 1, 0)
		}
		if err := c.gen(jid, job, ind); err != nil {
			return nil, err
		}
		// The subtree's objective terms, summed per variable in emission
		// order. A variable belongs to one job, so this is its whole
		// coefficient.
		for _, t := range sc.obj {
			c.Model.Vars[t.Var].Obj += t.Coef
		}
		sc.obj = sc.obj[:0]
	}
	c.job = append(c.job, jobRecord{varLo: c.Model.NumVars(), leafLo: sc.nl})
	c.emitSupply()
	// The append-grown arrays may have moved; keep the larger ones.
	sc.parts, sc.ghosts = c.parts, c.ghosts
	return c, nil
}

// emitSupply adds the supply constraints: usage within each (group, slice)
// cannot exceed the nodes available there. A cell that cannot bind is dropped,
// and so is one repeating the terms of a row of its group at a limit no
// smaller. Cells go group-major, then slice by slice, each the one before
// stepped by the uses starting and ending at its slice, with its terms in
// emission order, so the model (and the optimum chosen among ties) is fixed.
func (c *Compiled) emitSupply() {
	sc, h := c.scr, int32(c.opts.Horizon)
	sc.sortEvents(len(c.Part.Groups), h)
	for g := range c.Part.Groups {
		sc.live, sc.cell, sc.kept, sc.keptLive = sc.live[:0], sc.cell[:0], sc.kept[:0], sc.keptLive[:0]
		maxUse, ghosts := int64(0), 0
		for t, k := int32(0), int32(g)*(h+1); t < h; t, k = t+1, k+1 {
			if ev := sc.events[sc.eventAt[k]:sc.eventAt[k+1]]; len(ev) > 0 {
				dUse, dGhosts := sc.step(ev)
				maxUse, ghosts = maxUse+dUse, ghosts+dGhosts
			}
			limit := c.avail[g][t]
			if maxUse <= limit || c.implied(g, sc.cell, limit) { // the empty cell too
				continue
			}
			sc.kept = append(sc.kept, keptRow{t: t, lo: int32(len(sc.keptLive)), hi: int32(len(sc.keptLive) + len(sc.cell))})
			sc.keptLive = append(sc.keptLive, sc.live...)
			c.Model.AddConstraintNamed(milp.Namef("supply_g%d_t%d", g, int(t)), c.setGhostsAside(sc.cell, ghosts), milp.LE, float64(limit))
		}
	}
}

// sortEvents counting-sorts where each use u starts (u) and ends (^u) into
// events, by group, slice (h: at the window's edge, never read) and emission.
func (sc *Scratch) sortEvents(nGroups int, h int32) {
	n := nGroups * int(h+1)
	at := sized(sc.eventAt, n+2)
	clear(at)
	for _, u := range sc.uses {
		at[u.group*(h+1)+u.s+2]++
		at[u.group*(h+1)+u.e+2]++
	}
	for i := 2; i < len(at); i++ {
		at[i] += at[i-1]
	}
	ev := sized(sc.events, 2*len(sc.uses))
	for i, u := range sc.uses {
		k, l := u.group*(h+1)+u.s+1, u.group*(h+1)+u.e+1
		ev[at[k]], ev[at[l]] = int32(i), ^int32(i)
		at[k], at[l] = at[k]+1, at[l]+1
	}
	sc.eventAt, sc.events = at[:n+1], ev
}

// step moves the cell on by its next slice's events into the spare memory:
// the uses ending leave, those starting join in emission order, the rest are
// copied over. It returns the change in the most nodes the cell's terms can
// take and in how many of them are ghosts.
func (sc *Scratch) step(ev []int32) (dUse int64, dGhosts int) {
	live, cell, n := sc.live, sc.cell, len(sc.live)+len(ev)
	nextLive, nextCell, i, k := sized(sc.spare, n), sized(sc.spareRow, n), 0, 0
	for _, e := range ev {
		u := max(e, ^e)
		for ; i < len(live) && live[i] < u; i, k = i+1, k+1 {
			nextLive[k], nextCell[k] = live[i], cell[i]
		}
		use, sign := &sc.uses[u], 1
		if e >= 0 {
			nextLive[k], nextCell[k], k = u, use.term, k+1
		} else {
			i, sign = i+1, -1 // live[i] is u, which ends here
		}
		dUse += int64(sign) * int64(use.w)
		if use.term.Var < 0 {
			dGhosts += sign
		}
	}
	copy(nextCell[k:], cell[i:])
	k += copy(nextLive[k:], live[i:])
	sc.spare, sc.spareRow, sc.live, sc.cell = live, cell, nextLive[:k], nextCell[:k]
	return dUse, dGhosts
}

// setGhostsAside records the ghosts of the supply cell about to become the
// model's next row, n of them, and returns the cell's other terms, the row's:
// the cell itself when there are none, else in the scratch's build buffer.
func (c *Compiled) setGhostsAside(cell []milp.Term, n int) []milp.Term {
	sc := c.scr
	if n == 0 {
		return cell
	}
	row, terms := int32(c.Model.NumConstraints()), sc.demand[:0]
	for _, tm := range cell {
		if tm.Var >= 0 {
			terms = append(terms, tm)
			continue
		}
		c.ghosts = append(c.ghosts, ghostTerm{row: row, job: sc.ghostJob[-2-int(tm.Var)]})
	}
	sc.demand = terms
	return terms
}

// rowGhosts returns the ghosts of row i and advances *at past them: callers
// walk the rows in order, with *at starting at 0.
func (c *Compiled) rowGhosts(i int, at *int) []ghostTerm {
	lo := *at
	for *at < len(c.ghosts) && int(c.ghosts[*at].row) == i {
		*at++
	}
	return c.ghosts[lo:*at]
}

// computeAvail fills avail[group][slice] from node release times.
func (c *Compiled) computeAvail() {
	h := c.opts.Horizon
	sc := c.scr
	sc.avail = sized(sc.avail, len(c.Part.Groups))
	sc.availFlat = sized(sc.availFlat, len(c.Part.Groups)*int(h))
	c.avail = sc.avail
	flat := sc.availFlat
	clear(flat)
	for g, set := range c.Part.Groups {
		row := flat[int64(g)*h : int64(g+1)*h : int64(g+1)*h]
		set.ForEach(func(n int) bool {
			rel := int64(0)
			if c.opts.ReleaseAt != nil {
				rel = c.opts.ReleaseAt[n]
			}
			if rel < 0 {
				rel = 0
			}
			for t := rel; t < h; t++ {
				if c.opts.BusyAt != nil && c.opts.BusyAt(n, t) {
					continue
				}
				row[t]++
			}
			return true
		})
		c.avail[g] = row
	}
}

// gen is Algorithm 1: it lowers expr under indicator ind and appends the
// linear objective contribution of the subtree to the scratch's obj buffer
// (callers note its length first and read, rewrite or truncate from there).
func (c *Compiled) gen(job int, expr strl.Expr, ind milp.VarID) error {
	sc := c.scr
	sc.nn++
	switch x := expr.(type) {
	case *strl.NCk:
		c.genNCk(job, x, ind)
		return nil
	case *strl.LnCk:
		c.genLnCk(job, x, ind)
		return nil
	case *strl.Sum:
		// Σ I_i ≤ n·I: children activate only if the parent does.
		return c.genChoice(job, x.Kids, ind, "I_j%d_sum%d", "sum_j%d", float64(len(x.Kids)))
	case *strl.Max:
		// Σ I_i ≤ I: at most one branch, and only if the parent activates.
		return c.genChoice(job, x.Kids, ind, "I_j%d_max%d", "max_j%d", 1)
	case *strl.Min:
		v := c.Model.AddVarNamed(milp.Namef("V_j%d", job), milp.Continuous, 0, milp.Inf, 0)
		for _, kid := range x.Kids {
			lo := len(sc.obj)
			if err := c.gen(job, kid, ind); err != nil { // children share the indicator
				return err
			}
			// V ≤ f_i.
			c.boundBelow(milp.Namef("min_j%d", job), milp.Term{Var: v, Coef: 1}, lo)
		}
		sc.obj = append(sc.obj, milp.Term{Var: v, Coef: 1})
		return nil
	case *strl.Scale:
		lo := len(sc.obj)
		if err := c.gen(job, x.Kid, ind); err != nil {
			return err
		}
		for i := lo; i < len(sc.obj); i++ {
			sc.obj[i].Coef = x.S * sc.obj[i].Coef
		}
		return nil
	case *strl.Barrier:
		lo := len(sc.obj)
		if err := c.gen(job, x.Kid, ind); err != nil {
			return err
		}
		// v·I ≤ f.
		c.boundBelow(milp.Namef("barrier_j%d", job), milp.Term{Var: ind, Coef: x.V}, lo)
		sc.obj = append(sc.obj, milp.Term{Var: ind, Coef: x.V})
		return nil
	}
	return fmt.Errorf("compiler: unknown expression type %T", expr)
}

// genChoice lowers a SUM or MAX node: one indicator per child, the children
// themselves (their objective terms simply accumulate), then the row
// Σ I_i − n·I ≤ 0 tying the children to the parent, n being 1 for a MAX and the
// number of children for a SUM. A job's root choice has no indicator (ind is
// noVar): its row is Σ I_i ≤ n, and with one live child that row cannot bind,
// so there is none. A dead child (see markDead) gets neither indicator nor
// term: it could only ever be 0.
func (c *Compiled) genChoice(job int, kids []strl.Expr, ind milp.VarID, kidFormat, rowFormat string, n float64) error {
	sc := c.scr
	lo := len(sc.kids) // nested choices push and pop above this level's terms
	for i, kid := range kids {
		if sc.dead[sc.nn] {
			c.skip(kid)
			continue
		}
		ki := c.Model.AddVarNamed(milp.Namef(kidFormat, job, i), milp.Binary, 0, 1, 0)
		sc.kids = append(sc.kids, milp.Term{Var: ki, Coef: 1})
		if err := c.gen(job, kid, ki); err != nil {
			return err
		}
	}
	switch {
	case ind != noVar:
		sc.kids = append(sc.kids, milp.Term{Var: ind, Coef: -n})
		c.Model.AddConstraintNamed(milp.Namef(rowFormat, job), sc.kids[lo:], milp.LE, 0)
	case len(sc.kids)-lo > 1:
		c.Model.AddConstraintNamed(milp.Namef(rowFormat, job), sc.kids[lo:], milp.LE, n)
	}
	sc.kids = sc.kids[:lo]
	return nil
}

// boundBelow emits head − f ≤ 0, where f is the subtree objective in
// obj[lo:], and removes f from the buffer: the caller replaces it with the
// bounded quantity.
func (c *Compiled) boundBelow(name milp.Name, head milp.Term, lo int) {
	sc := c.scr
	con := append(sc.demand[:0], head)
	for _, t := range sc.obj[lo:] {
		con = append(con, milp.Term{Var: t.Var, Coef: -t.Coef})
	}
	c.Model.AddConstraintNamed(name, con, milp.LE, 0)
	sc.demand = con
	sc.obj = sc.obj[:lo]
}

// slices returns the occupied slice range [start, end) clipped to the window,
// or ok=false if the leaf cannot start inside the window.
func (c *Compiled) slices(start, dur int64) (int64, int64, bool) {
	if start < 0 || start >= c.opts.Horizon {
		return 0, 0, false
	}
	end := start + dur
	if end > c.opts.Horizon {
		end = c.opts.Horizon
	}
	return start, end, true
}

// cullLeaves marks the leaves that provably cannot be satisfied: out of the
// window, or (a linear leaf takes what there is) with too few nodes available
// across the cover during the occupied slices. Records and Partition's covers
// are both in visiting order, one per leaf. From the leaves it marks the dead
// subtrees, once, for the lowering to read as it comes to each node.
func (c *Compiled) cullLeaves() {
	for i := range c.leaves {
		rec := &c.leaves[i]
		s, e, ok := c.slices(rec.start, rec.dur)
		if ok && !rec.linear {
			total := int64(0)
			for _, g := range c.Part.Cover[i] {
				total += c.minAvail(g, s, e)
			}
			ok = total >= int64(rec.k)
		}
		rec.culled = !ok
	}
	sc := c.scr
	sc.dead = sc.dead[:0]
	leaf := 0
	for _, job := range c.jobs {
		c.markDead(job, &leaf)
	}
}

// markDead appends to the scratch's dead list, for every node of expr in the
// order gen and skip visit them, whether the node's subtree can be left out of
// the model, and reports it for expr; *leaf is the record of the next leaf. A
// culled leaf is dead; so is anything that needs a dead child (MIN, SCALE,
// BARRIER) and a choice (MAX, SUM) all of whose children are. Whoever owns the
// subtree's indicator gives it none: nothing of a dead subtree is lowered
// (skip), which is what pinning the indicator to 0 with a row, for presolve to
// propagate, used to arrive at.
func (c *Compiled) markDead(expr strl.Expr, leaf *int) bool {
	sc := c.scr
	at := len(sc.dead)
	sc.dead = append(sc.dead, false)
	dead := false
	switch x := expr.(type) {
	case *strl.NCk, *strl.LnCk:
		dead = c.leaves[*leaf].culled
		*leaf++
	case *strl.Min:
		for _, kid := range x.Kids {
			dead = c.markDead(kid, leaf) || dead
		}
	case *strl.Max:
		dead = c.allDead(x.Kids, leaf)
	case *strl.Sum:
		dead = c.allDead(x.Kids, leaf)
	case *strl.Scale:
		dead = c.markDead(x.Kid, leaf)
	case *strl.Barrier:
		dead = c.markDead(x.Kid, leaf)
	}
	sc.dead[at] = dead
	return dead
}

func (c *Compiled) allDead(kids []strl.Expr, leaf *int) bool {
	dead := true
	for _, kid := range kids {
		dead = c.markDead(kid, leaf) && dead
	}
	return dead
}

// skip passes over a dead subtree, counting its nodes and leaves as gen would:
// its leaves have no variables whatever their own test said, so all are culled.
func (c *Compiled) skip(expr strl.Expr) {
	c.scr.nn++
	switch x := expr.(type) {
	case *strl.NCk, *strl.LnCk:
		c.leaves[c.scr.nl].culled = true
		c.scr.nl++
	case *strl.Max:
		c.skipKids(x.Kids)
	case *strl.Sum:
		c.skipKids(x.Kids)
	case *strl.Min:
		c.skipKids(x.Kids)
	case *strl.Scale:
		c.skip(x.Kid)
	case *strl.Barrier:
		c.skip(x.Kid)
	}
}

func (c *Compiled) skipKids(kids []strl.Expr) {
	for _, kid := range kids {
		c.skip(kid)
	}
}

// nextLeaf returns the record of the leaf being lowered — a live one: gen is
// never called on a dead subtree — with the leaf's equivalence-set cover.
func (c *Compiled) nextLeaf(ind milp.VarID) (*leafRecord, []int) {
	i := c.scr.nl
	c.scr.nl++
	c.leaves[i].ind = ind
	return &c.leaves[i], c.Part.Cover[i]
}

// addPart records one partition variable of the leaf being lowered; a leaf's
// parts are contiguous.
func (c *Compiled) addPart(rec *leafRecord, pv partVar) {
	if rec.partN == 0 {
		rec.partLo = len(c.parts)
	}
	c.parts = append(c.parts, pv)
	rec.partN++
}

func (c *Compiled) genNCk(job int, leaf *strl.NCk, ind milp.VarID) {
	rec, cover := c.nextLeaf(ind)
	s, e, _ := c.slices(leaf.Start, leaf.Dur)
	sc := c.scr
	if len(cover) == 1 {
		// Presolve: the only possible grant is k nodes from this group, so
		// the partition variable is k·I exactly.
		rec.single, rec.group = true, cover[0]
		c.addUse(cover[0], s, e, milp.Term{Var: ind, Coef: float64(leaf.K)})
		sc.obj = append(sc.obj, milp.Term{Var: ind, Coef: leaf.Value})
		return
	}
	// Demand: Σ P_x = k·I. AddConstraint copies its terms, so the pooled
	// build buffer can be handed over and reused for the next leaf.
	sc.demand = append(c.genParts(rec, cover, s, e, "P_j%d_g%d_s%d"), milp.Term{Var: ind, Coef: -float64(leaf.K)})
	c.Model.AddConstraintNamed(milp.Namef("demand_j%d_s%d", job, int(leaf.Start)), sc.demand, milp.EQ, 0)
	sc.obj = append(sc.obj, milp.Term{Var: ind, Coef: leaf.Value})
}

func (c *Compiled) genLnCk(job int, leaf *strl.LnCk, ind milp.VarID) {
	rec, cover := c.nextLeaf(ind)
	s, e, _ := c.slices(leaf.Start, leaf.Dur)
	sc := c.scr
	// Demand: Σ P_x ≤ k·I.
	sc.demand = append(c.genParts(rec, cover, s, e, "Pl_j%d_g%d_s%d"), milp.Term{Var: ind, Coef: -float64(leaf.K)})
	c.Model.AddConstraintNamed(milp.Namef("ldemand_j%d_s%d", job, int(leaf.Start)), sc.demand, milp.LE, 0)
	for _, pv := range c.partsOf(rec) {
		sc.obj = append(sc.obj, milp.Term{Var: pv.id, Coef: leaf.Value / float64(leaf.K)})
	}
}

// genParts gives the leaf one partition variable per cover group with a node
// free throughout slices [s, e), each using its group's supply over them, and
// returns their sum as the start of the leaf's demand row, in the scratch's
// build buffer. A group with no node free throughout gets no variable, its
// count could only be 0, but a ghost in its supply cells (ghostVar).
func (c *Compiled) genParts(rec *leafRecord, cover []int, s, e int64, format string) []milp.Term {
	sc := c.scr
	demand := sc.demand[:0]
	for _, g := range cover {
		free := c.minAvail(g, s, e)
		if free == 0 {
			c.addUse(g, s, e, milp.Term{Var: ghostVar(len(sc.ghostJob)), Coef: 1})
			sc.ghostJob = append(sc.ghostJob, int32(rec.job))
			continue
		}
		ub := math.Min(float64(rec.k), float64(free))
		p := c.Model.AddVarNamed(milp.Namef(format, rec.job, g, int(rec.start)), milp.Integer, 0, ub, 0)
		c.addPart(rec, partVar{group: g, id: p})
		demand = append(demand, milp.Term{Var: p, Coef: 1})
		c.addUse(g, s, e, milp.Term{Var: p, Coef: 1})
	}
	return demand
}

// implied reports whether the supply row of group g with these terms and this
// limit says nothing new: one of the group's kept rows has the same terms at a
// limit no larger.
func (c *Compiled) implied(g int, cell []milp.Term, limit int64) bool {
	sc := c.scr
	isTerm := func(u int32, tm milp.Term) bool { return sc.uses[u].term == tm }
	for i := len(sc.kept) - 1; i >= 0; i-- { // the nearest slice first
		if k := sc.kept[i]; c.avail[g][k.t] <= limit && slices.EqualFunc(sc.keptLive[k.lo:k.hi], cell, isTerm) {
			return true
		}
	}
	return false
}

// minAvail returns the minimum availability of group g over slices [s, e).
func (c *Compiled) minAvail(g int, s, e int64) int64 {
	if s >= e {
		return 0
	}
	return slices.Min(c.avail[g][s:e])
}

// addUse puts the term in the supply cells of group g over slices [s, e), s < e:
// a leaf lasts a slice at least (strl.Validate), and starts inside the window.
func (c *Compiled) addUse(g int, s, e int64, term milp.Term) {
	w := int32(0)
	if term.Var >= 0 {
		w = int32(term.Coef * c.Model.Vars[term.Var].Ub)
	}
	c.scr.uses = append(c.scr.uses, supplyUse{term: term, w: w, group: int32(g), s: int32(s), e: int32(e)})
}

// Stats summarizes a compiled model, the quantities that drive solver
// latency in the paper's scalability analysis (§7.3: "partition variables
// are the most prominent decision variables").
type Stats struct {
	Jobs        int
	Leaves      int
	CulledLeafs int
	Groups      int
	Vars        int
	IntVars     int
	Constraints int
}

// Stats reports the compiled model's size.
func (c *Compiled) Stats() Stats {
	s := Stats{
		Jobs:        len(c.jobs),
		Leaves:      len(c.leaves),
		Groups:      len(c.Part.Groups),
		Vars:        c.Model.NumVars(),
		IntVars:     c.Model.NumIntVars(),
		Constraints: c.Model.NumConstraints(),
	}
	for i := range c.leaves {
		if c.leaves[i].culled {
			s.CulledLeafs++
		}
	}
	return s
}

// jobLeaves returns job j's leaf records.
func (c *Compiled) jobLeaves(j int) []leafRecord {
	return c.leaves[c.job[j].leafLo:c.job[j+1].leafLo]
}

// grantedGroups returns how many partition groups the vector x draws the leaf's
// nodes from; x is in a variable space shifted down by shift from the model's.
func (c *Compiled) grantedGroups(rec *leafRecord, x []float64, shift int) int {
	switch {
	case rec.culled:
		return 0
	case rec.single:
		if math.Round(x[int(rec.ind)-shift]) > 0 {
			return 1
		}
		return 0
	}
	n := 0
	for _, pv := range c.partsOf(rec) {
		if math.Round(x[int(pv.id)-shift]) > 0 {
			n++
		}
	}
	return n
}

// Decode converts a solver solution into per-leaf grants. Leaves with no
// allocation are omitted.
func (c *Compiled) Decode(sol *milp.Solution) []LeafGrant {
	return c.appendGrants(nil, sol.Values, &roundScope{})
}

// AppendGrants is Decode for the component's own solution vector x (in the
// component's variable space, as its solve returns it), appending to dst. A
// grant's Job is still the job's index in the batch the component was cut from.
func (cc *Component) AppendGrants(dst []LeafGrant, x []float64) []LeafGrant {
	return cc.parent.appendGrants(dst, x, &cc.scope)
}

// appendGrants decodes the scope's jobs from x, a vector in the scope's
// variable space. Only a granted leaf costs anything, and the Counts of all
// the grants of one call are cut from one array.
func (c *Compiled) appendGrants(dst []LeafGrant, x []float64, sc *roundScope) []LeafGrant {
	r := rounding{c: c, sc: sc}
	nJobs := len(sc.jobs)
	if sc.jobs == nil {
		nJobs = len(c.jobs)
	}
	pairs := 0
	for i := 0; i < nJobs; i++ {
		j, shift := r.job(i)
		recs := c.jobLeaves(j)
		for li := range recs {
			pairs += c.grantedGroups(&recs[li], x, shift)
		}
	}
	if pairs == 0 {
		return dst
	}
	counts := make([]GroupCount, 0, pairs)
	for i := 0; i < nJobs; i++ {
		j, shift := r.job(i)
		recs := c.jobLeaves(j)
		for li := range recs {
			rec := &recs[li]
			if c.grantedGroups(rec, x, shift) == 0 {
				continue // the ungranted majority
			}
			lo, total := len(counts), 0
			if rec.single {
				total = int(math.Round(x[int(rec.ind)-shift])) * rec.k
				counts = append(counts, GroupCount{rec.group, total})
			} else {
				for _, pv := range c.partsOf(rec) {
					if n := int(math.Round(x[int(pv.id)-shift])); n > 0 {
						counts = append(counts, GroupCount{pv.group, n})
						total += n
					}
				}
			}
			dst = append(dst, LeafGrant{Job: rec.job, Leaf: rec.expr, Start: rec.start, Dur: rec.dur,
				Counts: counts[lo:len(counts):len(counts)], Total: total})
		}
	}
	return dst
}

// Assignment converts a solution into the strl evaluator's assignment form
// (leaf → total granted count) for cross-checking the model against STRL
// semantics.
func (c *Compiled) Assignment(sol *milp.Solution) strl.Assignment {
	a := strl.Assignment{}
	for _, g := range c.Decode(sol) {
		a[g.Leaf] = g.Total
	}
	return a
}
