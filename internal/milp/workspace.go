package milp

import "sync"

// Memory ownership (docs/SOLVER.md has the longer version).
//
// A solve builds a chain of views and flat copies of its model — presolver
// rows and the reduced model (which keep the model's columns and read its own
// term arrays except where load normalized a row), the LP's compressed
// columns, simplex and basis-engine buffers, the pseudocost table — and a
// tree of nodes and basis snapshots
// that all die when Solve returns, and so do the chain's headers (the
// Presolved, every Model and lp, the search's answer). A Workspace keeps that
// memory between solves. It belongs to whoever calls Solve on it, serves one
// solve at a time, and is rewound when that solve returns; nothing a Solution
// carries points into it (the search's answer is the workspace's, and a solve
// ends by copying it out — into Part.Out, Values in Out.Values' memory, when
// the caller lent a Solution, into a fresh one otherwise — so callers may keep
// Solutions for as long as they like). The package-level Solve, Presolve and
// SolveParts run on a throwaway Workspace, which makes every one of these
// allocations an ordinary fresh one.
//
// It is deliberately not a sync.Pool: the runtime empties a pool on every
// second garbage collection, so the slabs were rebuilt every few cycles; on
// the paper's trace that version allocated a quarter more than this one.

// slab hands out zeroed slices of one element type from a single backing
// array. Until its first rewind a slab has no array: every request is an
// allocation cut exact, and the rewind makes the array, of what the solve was
// holding. A first solve may be the only one (the package-level Solve,
// Presolve and SolveParts run on a throwaway Workspace, which is never
// rewound), and room for the next would be thrown away with it. From then on a
// request that does not fit starts a new array, at least twice the size, and
// is served from that: the slices handed out before keep the old one alive
// until they are dropped, and the slab is one array again from the next rewind
// on. A backlog that grows a little every cycle regrows a slab a logarithmic
// number of times, so a workspace converges on the largest model it has seen
// and then allocates nothing. Everything past used is kept zero: slices are
// wiped when they come back, not when they go out, so a rewound slab holds no
// stale pointer into a model the caller has dropped.
type slab[T any] struct {
	buf  []T
	used int  // elements handed out and not released: of buf, once there is one
	gen  int  // arrays started: a mark taken in an earlier one has nothing to release in this one
	kept bool // rewound before, so it has its array
}

func (s *slab[T]) take(n int) []T {
	if !s.kept {
		s.used += n
		return make([]T, n)
	}
	if n > len(s.buf)-s.used {
		s.buf, s.used = make([]T, max(n, 2*len(s.buf))), 0
		s.gen++
	}
	s.used += n
	return s.buf[s.used-n : s.used : s.used]
}

// slabMark is a position to release back to: what a nested, strictly
// shorter-lived user (a cut round) took is handed back when it is done.
type slabMark struct{ used, gen int }

func (s *slab[T]) mark() slabMark { return slabMark{s.used, s.gen} }

func (s *slab[T]) release(m slabMark) {
	if m.gen != s.gen {
		m.used = 0 // the array was started after the mark: all of it goes back
	}
	if s.kept {
		clear(s.buf[m.used:s.used])
	}
	s.used = m.used
}

func (s *slab[T]) rewind() {
	if s.kept {
		clear(s.buf[:s.used])
	} else {
		s.buf, s.kept = make([]T, s.used), true
	}
	s.used = 0
}

// Workspace is the reusable memory of one solve at a time. The zero value is
// ready to use and holds nothing until its first solve; it grows to fit the
// largest model it has solved and the largest tree it has searched, and never
// shrinks, so drop it to release the memory. A Workspace must not be used from
// more than one goroutine at a time (WorkspaceList shares several between
// concurrent solves). A nil *Workspace is valid and solves on fresh memory.
type Workspace struct {
	floats slab[float64]
	int32s slab[int32]
	ints   slab[int]
	bytes  slab[byte]
	terms  slab[Term]
	vars   slab[Variable]
	cons   slab[Constraint]
	rows   slab[psRow]
	models slab[Model] // the reduced model and every cut round's grown one
	lps    slab[lp]    // the LP of each of those

	ps  presolver // its dedup map and clique scratch outlive a solve
	pre Presolved // the solve's reduction
	ans Solution  // the search's answer

	// The tree search's memory ("Tree memory" in solve.go says who may touch
	// it when): every node of the current solve, the headers of its basis
	// snapshots (their arrays are cut from int32s and bytes), the snapshots
	// no open node references any more, and the open-node heap's array.
	nodes    slab[bbNode]
	block    []bbNode // nodes cut from the slab and not yet handed out
	snaps    slab[basisState]
	snapFree []*basisState
	open     nodeHeap

	cut cutScratch // root separation's candidate lists outlive a round

	search search // the current solve's tree search

	// Simplex states (with their LU engines, whose factor and eta arrays
	// grow by append) are kept whole and re-bound to the next LP. states[:lent]
	// are in use by the current solve.
	states []*simplexState
	lent   int
}

// wsMark is a position in the memory a nested, strictly shorter-lived LP solve
// borrows — a cut round's carried-over basis — to hand it back when the solve
// is done.
type wsMark struct {
	floats, int32s, bytes, snaps slabMark
	lent                         int
}

func (w *Workspace) mark() wsMark {
	return wsMark{w.floats.mark(), w.int32s.mark(), w.bytes.mark(), w.snaps.mark(), w.lent}
}

func (w *Workspace) release(m wsMark) {
	w.floats.release(m.floats)
	w.int32s.release(m.int32s)
	w.bytes.release(m.bytes)
	w.snaps.release(m.snaps)
	w.lent = m.lent
}

// Solve is the package-level Solve on this workspace's memory: same model,
// same options, same result.
func (w *Workspace) Solve(model *Model, opts Options) (*Solution, error) {
	return w.solveInto(nil, model, opts)
}

// solveInto is Solve with the result written into out, its Values into
// out.Values' memory when they fit there (Part.Out), and out returned; a nil
// out is a fresh Solution.
func (w *Workspace) solveInto(out *Solution, model *Model, opts Options) (*Solution, error) {
	if out == nil {
		out = new(Solution)
	}
	if w == nil {
		w = new(Workspace) // thrown away: nothing to rewind
	} else {
		defer w.rewind()
	}
	return w.solve(model, opts, out)
}

// answer files the search's result as the workspace's, for the solve to copy
// out. It takes the Solution by value and returns the workspace's address:
// returning the parameter's would move it to the heap on every call.
func (w *Workspace) answer(sol Solution) *Solution {
	w.ans = sol
	return &w.ans
}

func (w *Workspace) rewind() {
	w.floats.rewind()
	w.int32s.rewind()
	w.ints.rewind()
	w.bytes.rewind()
	w.terms.rewind()
	w.vars.rewind()
	w.cons.rewind()
	w.rows.rewind()
	w.models.rewind()
	w.lps.rewind()
	w.pre, w.ans = Presolved{}, Solution{}
	w.nodes.rewind()
	w.block = nil
	w.snaps.rewind()
	// Both lists pointed into the slabs just rewound. Slots past their length
	// were cleared when they were popped.
	clear(w.snapFree)
	w.snapFree = w.snapFree[:0]
	clear(w.open.nodes)
	w.open.nodes = w.open.nodes[:0]
	clear(w.cut.kept[:cap(w.cut.kept)]) // rows on the term slab
	w.lent = 0
	w.search = search{}
	// The presolver keeps its scratch, not its references to the model.
	w.ps = presolver{dedupSeen: w.ps.dedupSeen, cliqueRows: w.ps.cliqueRows[:0], cliqueLits: w.ps.cliqueLits[:0]}
}

// newScratch lends a simplex state bound to p: a retained one when there is
// one, a new one otherwise.
func (w *Workspace) newScratch(p *lp) *simplexState {
	if w.lent == len(w.states) {
		w.states = append(w.states, new(simplexState))
	}
	s := w.states[w.lent]
	w.lent++
	s.bind(p)
	return s
}

// zeroed returns buf resized to n zeroed elements, reallocating — to at least
// twice the capacity, like a slab — only when its capacity is too small.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// WorkspaceList is a free list of workspaces for solves that run
// concurrently: each SolveEach worker takes one, solves its parts on it and
// puts it back, so the list holds no more than were ever out at once. The
// zero value is an empty list; a nil *WorkspaceList hands out nil workspaces,
// i.e. fresh memory. Safe for concurrent use.
type WorkspaceList struct {
	mu   sync.Mutex
	free []*Workspace
}

// Get takes a workspace off the list, or makes one when the list is empty.
func (l *WorkspaceList) Get() *Workspace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		w := l.free[n-1]
		l.free = l.free[:n-1]
		return w
	}
	return new(Workspace)
}

// Put returns a workspace no solve is using any more.
func (l *WorkspaceList) Put(w *Workspace) {
	if l == nil || w == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, w)
}
