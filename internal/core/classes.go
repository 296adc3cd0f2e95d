package core

// The class table (docs/SOLVER.md "The class table"). Adaptive plan-ahead
// re-plans a nearly identical batch every cycle, and jobs whose placement sets
// never meet share no supply row, so the unit a cycle compiles, replays and
// purges is the coupling class: a maximal set of batched jobs connected through
// intersecting leaf sets, derived before anything is lowered. Each class has
// its own compiler.Scratch and is compiled against its own nodes only; it is
// kept while its requests are the same objects at the same revision (the
// per-job expression cache keeps a request, leaf pointers and all, until an
// event on the job or its last option expires, re-pricing and trimming it in
// place when its value-function expiry passes) and the believed release slices
// of its nodes are unchanged, which together make every compiler input
// identical. A kept class whose
// warm-start choices are also last cycle's does nothing: its stored plan is
// the cycle's plan. In any other kept class a component replays its solution
// when its seed is the one that solution was solved from, or one the solver
// proves cannot change it: model and rounding state are the same Compiled and
// the work budget is a count, so the solve would end the same way. A rebuilt
// class solves every component.
//
// Both reuse only provably identical inputs, so runs with and without them
// make byte-identical decisions (TestCompileCacheParityProperty).
// Config.DisableCompileCache regenerates every request, hence recompiles every
// class and replays nothing.

import (
	"slices"

	"tetrisched/internal/bitset"
	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
	"tetrisched/internal/shard"
	"tetrisched/internal/slab"
	"tetrisched/internal/strl"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/trace"
)

// exprEntry is one cached per-job STRL request.
type exprEntry struct {
	req        *strlgen.Request
	validUntil int64 // last cycle time at which req is what a fresh one would be
}

// class is one coupling class, compiled. reqs, revs and rel are its key; comp and
// what comps point to live in scr, every entry's grants speak of comp's leaves
// and partition groups, and all of it dies at scr's next Compile, which happens
// only through build, for a class that is not in the table. The headers in
// comps are the class's own, rewritten only by build in the step that replaces
// comp, so each reports Stale for the Compiled it was cut from.
type class struct {
	reqs  []*strlgen.Request // members in batch order, by pointer
	revs  []uint32           // their revisions when compiled: a re-priced member is another request
	nodes []int32            // the union of the members' leaf sets; nil: every node
	rel   []int64            // their believed release slices when compiled
	named int                // members classOf still maps here: events take them away

	scr      *compiler.Scratch
	exprs    []strl.Expr
	comp     *compiler.Compiled
	comps    []compiler.Component
	ents     []compEntry // one per component
	ids      []int       // every entry's ids
	assign   []int       // shard routing of the members, nil when monolithic
	spanning int         // members routed to the gang arbitrator

	want   []int32              // per member: the option seeded from last cycle's plan, or -1
	grants []compiler.LeafGrant // the cycle's plan for the members, in member order
	stale  bool                 // a component's grants changed since grants was put together
	idx    []int                // the members' positions in this cycle's batch
	seen   uint64               // the last cycle that used the class
	pos    int                  // extraction: members met
	at     int                  // extraction: grants consumed
}

// solved reports whether every component has a solution to replay.
func (cl *class) solved() bool {
	for i := range cl.ents {
		if cl.ents[i].sol == nil {
			return false
		}
	}
	return true
}

// compEntry is what a class remembers about one component. grants is its plan,
// as grants on the leaves of the class's compilation, their Counts cut from
// counts; both are rewritten only when the entry is solved again, which also
// marks the class stale for regrant. sol, when non-nil, is the sub-solution
// solved from seed, proven optimal or cut off by the work budget.
type compEntry struct {
	ids     []int          // the component's job IDs
	sol     *milp.Solution // nil or &out
	out     milp.Solution  // memory for a solve's Solution, Values included; sol's, while there is one
	seed    []float64      // the warm start the component is solved from; nil: none
	seedBuf []float64      // memory for seed
	grants  []compiler.LeafGrant
	counts  []compiler.GroupCount
}

// feEnabled reports whether requests are cached, classes therefore kept and
// their solutions replayed. Greedy mode (TetriSched-NG) compiles per job with
// tentative claims threaded between solves — there is no batch to keep.
func (s *Scheduler) feEnabled() bool { return !s.cfg.DisableCompileCache && !s.cfg.Greedy }

// markJobDirty is the one purge hook: every event that can change a job's
// request or standing (arrival, launch, finish, drop) drops its cached
// expression, retiring its request, marks its class for recompilation and
// forgets the solutions of the components naming it. Terminal events must
// purge eagerly: a drained scheduler runs no further global cycle to sweep the
// table. A capacity change without a job event shows in the class's release
// slices.
func (s *Scheduler) markJobDirty(id int) {
	if ent := s.exprCache[id]; ent != nil {
		s.retired = append(s.retired, ent.req)
		delete(s.exprCache, id)
	}
	cl := s.classOf[id]
	if cl == nil {
		return
	}
	delete(s.classOf, id)
	cl.named--
	for i := range cl.ents {
		if slices.Contains(cl.ents[i].ids, id) {
			cl.ents[i].sol = nil
		}
	}
}

// grouping is the scratch of one cycle's split of the batch into classes.
type grouping struct {
	cls   []int         // class of each batch job, classes numbered by first member
	memb  []int         // batch indices, class by class
	start []int         // class k is memb[start[k]:start[k+1]]
	masks []*bitset.Set // masks[k]: union of class k's request masks
	root  []int
}

// group unions requests whose node masks meet and returns the class count. A
// sharded batch is one class over every node: shard routing and the gang
// arbitrator cut it instead (AppendComponents along the assignment).
func (s *Scheduler) group(reqs []*strlgen.Request) int {
	g := &s.grp
	g.cls, g.root = slab.Sized(g.cls, len(reqs)), g.root[:0]
	open := func() int { // a new class slot, its mask empty
		k := len(g.root)
		g.root = append(g.root, k)
		if k == len(g.masks) {
			g.masks = append(g.masks, bitset.New(s.c.N()))
		}
		g.masks[k].Clear()
		return k
	}
	if s.sharded() {
		clear(g.cls)
		g.masks[open()].Fill()
		reqs = nil
	}
	for i, r := range reqs {
		k := -1
		for c := range g.root {
			switch {
			case g.root[c] != c || !g.masks[c].Intersects(r.Nodes):
			case k < 0:
				k = c
			default: // r bridges two classes: the later folds into the earlier
				g.masks[k].UnionWith(g.masks[c])
				g.root[c] = k
			}
		}
		if k < 0 {
			k = open()
		}
		g.masks[k].UnionWith(r.Nodes)
		g.cls[i] = k
	}
	// Number the surviving slots in order, which is order of first member (a
	// fold is always into the earlier slot), and bring their masks forward.
	n := 0
	for c := range g.root {
		if g.root[c] != c {
			g.root[c] = g.root[g.root[c]]
			continue
		}
		g.masks[n], g.masks[c] = g.masks[c], g.masks[n]
		g.root[c] = n
		n++
	}
	g.start = slab.Sized(g.start, n+1)
	clear(g.start)
	for i, c := range g.cls {
		g.cls[i] = g.root[c]
		g.start[g.cls[i]+1]++
	}
	for k := 0; k < n; k++ {
		g.root[k] = g.start[k] // fill cursor
		g.start[k+1] += g.start[k]
	}
	g.memb = slab.Sized(g.memb, len(g.cls))
	for i, k := range g.cls {
		g.memb[g.root[k]] = i
		g.root[k]++
	}
	return n
}

// classify returns the batch's classes in order of first member, each either
// kept from the table or compiled now, and sweeps the table of the classes the
// batch no longer has. On a compile error (impossible for generated
// expressions) the failing class leaves no entry behind.
func (s *Scheduler) classify(reqs []*strlgen.Request, rel []int64) ([]*class, error) {
	s.cycle++
	for _, old := range s.classes {
		if old.named == 0 {
			// Every member has launched, finished or been dropped: nothing
			// will ask for its solutions, and its memory is free for whatever
			// this cycle compiles without a predecessor.
			old.seen, s.spare = s.cycle, append(s.spare, old)
		}
	}
	n := s.group(reqs)
	cur := s.swept[:0]
	kept, compiled := 0, 0
	var err error
	for k := 0; k < n && err == nil; k++ {
		m := s.grp.memb[s.grp.start[k]:s.grp.start[k+1]]
		cl := s.classOf[reqs[m[0]].Job.ID]
		if cl != nil && cl.holds(reqs, m, rel) {
			kept += len(m)
		} else {
			if cl, err = s.build(reqs, m, s.grp.masks[k], rel); err != nil {
				break
			}
			compiled += len(m)
		}
		cl.idx, cl.seen, cl.pos, cl.at = m, s.cycle, 0, 0
		cur = append(cur, cl)
	}
	for _, old := range s.classes {
		if old.seen == s.cycle {
			continue
		}
		for _, r := range old.reqs {
			if s.classOf[r.Job.ID] == old {
				delete(s.classOf, r.Job.ID)
			}
		}
		s.spare = append(s.spare, old)
	}
	s.handBack()
	if len(s.spare) > len(cur) { // as many as there are classes are kept for their memory
		clear(s.spare[len(cur):])
		s.spare = s.spare[:len(cur)]
	}
	clear(s.classes)
	s.classes, s.swept = cur, s.classes
	if err != nil {
		return nil, err
	}
	s.Stats.CompileSkips += kept
	s.Stats.CompileJobs += compiled
	return cur, nil
}

// handBack gives the Generator the retired requests to issue again. It runs
// once no class reads them: after classify has swept the table, whose sweep
// reads the swept classes' requests, or in a cycle that keeps no table. A
// retired request is in no class the sweep keeps: its job has left classOf,
// so its class cannot hold.
func (s *Scheduler) handBack() {
	for _, r := range s.retired {
		s.gen.Recycle(r)
	}
	clear(s.retired)
	s.retired = s.retired[:0]
}

// holds reports whether the class is the batch's members m compiled against
// these release slices: the same request objects, not re-priced since, and the
// same slices on its nodes make every compiler input identical.
func (cl *class) holds(reqs []*strlgen.Request, m []int, rel []int64) bool {
	if cl.named != len(m) || len(cl.reqs) != len(m) {
		return false
	}
	for i, bi := range m {
		if cl.reqs[i] != reqs[bi] || cl.revs[i] != reqs[bi].Rev {
			return false
		}
	}
	for i, n := range cl.nodes {
		if cl.rel[i] != rel[n] {
			return false
		}
	}
	return cl.nodes != nil || slices.Equal(cl.rel, rel)
}

// build compiles and decomposes the batch's members m as a new class and
// enters it in the table, every component without a solution.
func (s *Scheduler) build(reqs []*strlgen.Request, m []int, mask *bitset.Set, rel []int64) (*class, error) {
	var cl *class
	if n := len(s.spare); n > 0 {
		cl, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		cl = &class{scr: new(compiler.Scratch)}
	}
	for _, bi := range m {
		if old := s.classOf[reqs[bi].Job.ID]; old != nil {
			// The class this one succeeds is about to be swept, and its
			// Scratch is the one that has grown to this neighbourhood's size.
			cl.scr, old.scr = old.scr, cl.scr
			break
		}
	}
	cl.reqs, cl.revs, cl.exprs, cl.nodes, cl.rel = cl.reqs[:0], cl.revs[:0], cl.exprs[:0], cl.nodes[:0], cl.rel[:0]
	cl.named, cl.stale, cl.want = len(m), true, cl.want[:0]
	for _, bi := range m {
		cl.reqs = append(cl.reqs, reqs[bi])
		cl.revs = append(cl.revs, reqs[bi].Rev)
		cl.exprs = append(cl.exprs, reqs[bi].Expr)
	}
	if mask.Count() == len(rel) {
		cl.nodes, cl.rel = nil, append(cl.rel, rel...)
	} else {
		mask.ForEach(func(n int) bool {
			cl.nodes, cl.rel = append(cl.nodes, int32(n)), append(cl.rel, rel[n])
			return true
		})
	}
	comp, err := cl.scr.Compile(cl.exprs, compiler.Options{
		Universe: s.c.N(), Horizon: s.horizon(), ReleaseAt: rel, Within: mask,
	})
	if err != nil {
		return nil, err
	}
	cl.comp = comp
	if s.sharded() {
		// Each shard's jobs become that shard's planner (a concurrent
		// sub-solve over an optimistic copy of the shared supply) and jobs no
		// shard can hold are serialized through the gang-arbitrator component
		// (docs/SHARDING.md). The span times this routing, which only a
		// rebuilt class pays.
		sp := s.tr.Begin("shard", "shard.assign")
		cl.assign, cl.spanning = shard.Assign(s.shardSets, cl.reqs)
		cl.comps = comp.AppendComponents(cl.comps[:0], cl.assign, len(s.shardSets))
		sp.End(trace.I("shards", int64(len(s.shardSets))), trace.I("spanning", int64(cl.spanning)),
			trace.I("components", int64(len(cl.comps))))
	} else {
		cl.comps = comp.AppendComponents(cl.comps[:0], nil, -1)
	}
	cl.ids = slab.Sized(cl.ids, len(m))
	if cap(cl.ents) < len(cl.comps) {
		cl.ents = append(cl.ents[:cap(cl.ents)], make([]compEntry, len(cl.comps)-cap(cl.ents))...)
	}
	cl.ents = cl.ents[:len(cl.comps)]
	lo := 0
	for ci := range cl.comps {
		ent, jobs := &cl.ents[ci], cl.comps[ci].Jobs
		*ent = compEntry{ids: cl.ids[lo : lo+len(jobs)], grants: ent.grants[:0], counts: ent.counts[:0], out: ent.out, seedBuf: ent.seedBuf}
		lo += len(jobs)
		for i, j := range jobs {
			ent.ids[i] = cl.reqs[j].Job.ID
		}
	}
	for _, r := range cl.reqs {
		s.classOf[r.Job.ID] = cl
	}
	return cl, nil
}

// wanted works out, for each member, the option that re-proposes last cycle's
// deferred choice shifted one slice (one cycle) toward the present, and
// reports whether they are all the ones wanted last cycle.
func (s *Scheduler) wanted(cl *class) bool {
	same := len(cl.want) == len(cl.reqs)
	cl.want = slab.Sized(cl.want, len(cl.reqs))
	for i, r := range cl.reqs {
		w := int32(-1)
		if pc, ok := s.lastJob[r.Job.ID]; ok && pc.slice > 0 {
			for oi := range r.Options {
				if o := &r.Options[oi]; o.Leaf.Start == pc.slice-1 && o.Key == pc.key {
					w = int32(oi)
					break
				}
			}
		}
		if !same || cl.want[i] != w {
			same, cl.want[i] = false, w
		}
	}
	return same
}

// plan decides, component by component, between last cycle's solution and a
// solve, and returns how many components must be solved (their entries have a
// nil sol and carry the seed). Only a kept class has solutions: its components
// are last cycle's model and rounding state, so a solve differs only in its
// seed, and a component replays when that seed is the one its solution was
// solved from or one the solver proves cannot change the answer
// (milp.Solution.SeedCannotChange: infeasible, or strictly worse than the root
// rounding that beat the old one). A replay keeps the seed the solution was
// solved from. A kept class wanting the same options as last cycle is settled
// wholesale: same seeds, so every component replays and the stored grants
// stand as they are.
func (s *Scheduler) plan(classes []*class) (live int) {
	for _, cl := range classes {
		if s.wanted(cl) && cl.solved() {
			s.Stats.ReuseHits += len(cl.ents)
			for ci := range cl.ents {
				s.traceReuse(cl, ci)
			}
			continue
		}
		for ci := range cl.comps {
			ent := &cl.ents[ci]
			// A generated request's options are its leaves in tree order, so
			// the wanted options name the leaves to seed.
			seed := cl.comps[ci].Seed(s.seed, cl.want)
			if seed != nil {
				s.seed = seed
			}
			if ent.sol != nil && ((seed == nil) == (ent.seed == nil) && slices.Equal(seed, ent.seed) ||
				ent.sol.SeedCannotChange(cl.comps[ci].Model, seed)) {
				s.Stats.ReuseHits++
				s.traceReuse(cl, ci)
				continue
			}
			if s.feEnabled() {
				s.Stats.ReuseMisses++
			}
			ent.sol, ent.seed = nil, nil
			if seed != nil {
				ent.seedBuf = append(ent.seedBuf[:0], seed...)
				ent.seed = ent.seedBuf
			}
			live++
		}
	}
	return live
}

// traceReuse records a replayed component the way a solved one records its
// sub-solve.
func (s *Scheduler) traceReuse(cl *class, ci int) {
	if s.tr != nil {
		sol := cl.ents[ci].sol
		s.tr.Complete("solve", "solve.reuse", 0, trace.S("status", sol.Status.String()),
			trace.I("jobs", int64(len(cl.comps[ci].Jobs))), trace.F("objective", sol.Objective))
	}
}

// regrant puts the class's plan together from its components' after any of
// them changed, in member order: extraction walks the batch in priority order.
func (cl *class) regrant() {
	if !cl.stale {
		return
	}
	cl.stale, cl.grants = false, cl.grants[:0]
	for i := range cl.ents {
		cl.grants = append(cl.grants, cl.ents[i].grants...)
	}
	if len(cl.ents) > 1 {
		slices.SortStableFunc(cl.grants, func(a, b compiler.LeafGrant) int { return a.Job - b.Job })
	}
}
