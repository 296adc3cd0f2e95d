package milp

import "sync"

// Memory ownership (docs/SOLVER.md has the longer version).
//
// A solve builds flat copies of its model — the LP's compressed columns,
// simplex and basis-engine buffers, the pseudocost table — and a tree of nodes
// and basis snapshots that all die when Solve returns, and so do their headers
// (the lp, the search's answer). A Workspace keeps that memory between solves.
// It belongs to whoever calls Solve on it, serves one solve at a time, and is
// rewound when that solve returns; nothing a Solution carries points into it
// (the search's answer is the workspace's, and a solve ends by copying it out
// — into Part.Out, Values in Out.Values' memory, when the caller lent a
// Solution, into a fresh one otherwise — so callers may keep Solutions for as
// long as they like). The package-level Solve and SolveParts run on a
// throwaway Workspace, which makes every one of these allocations an ordinary
// fresh one.
//
// It is deliberately not a sync.Pool: the runtime empties a pool on every
// second garbage collection, so the slabs were rebuilt every few cycles; on
// the paper's trace that version allocated a quarter more than this one.

// slab hands out zeroed slices of one element type from a single backing
// array. Until its first rewind a slab has no array: every request is an
// allocation cut exact, and the rewind makes the array, of what the solve was
// holding. A first solve may be the only one (the package-level Solve and
// SolveParts run on a throwaway Workspace, which is never rewound), and room
// for the next would be thrown away with it. From then on a
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
	used int  // elements handed out: of buf, once there is one
	kept bool // rewound before, so it has its array
}

func (s *slab[T]) take(n int) []T {
	if !s.kept {
		s.used += n
		return make([]T, n)
	}
	if n > len(s.buf)-s.used {
		s.buf, s.used = make([]T, max(n, 2*len(s.buf))), 0
	}
	s.used += n
	return s.buf[s.used-n : s.used : s.used]
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
	bytes  slab[byte]

	lp  lp       // the model's LP
	ans Solution // the search's answer

	// The tree search's memory ("Tree memory" in solve.go says who may touch
	// it when): every node of the current solve, the headers of its basis
	// snapshots (their arrays are cut from int32s and bytes), the snapshots
	// no open node references any more, and the open-node heap's array.
	nodes    slab[bbNode]
	block    []bbNode // nodes cut from the slab and not yet handed out
	snaps    slab[basisState]
	snapFree []*basisState
	open     nodeHeap

	search search // the current solve's tree search

	// The simplex state (with its LU engine, whose factor and eta arrays grow
	// by append) is kept whole and re-bound to the next LP.
	state *simplexState
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
	w.bytes.rewind()
	w.lp = lp{}
	w.ans = Solution{}
	w.nodes.rewind()
	w.block = nil
	w.snaps.rewind()
	// Both lists pointed into the slabs just rewound. Slots past their length
	// were cleared when they were popped.
	clear(w.snapFree)
	w.snapFree = w.snapFree[:0]
	clear(w.open.nodes)
	w.open.nodes = w.open.nodes[:0]
	w.search = search{}
}

// newScratch binds the workspace's simplex state to p, making it on the
// first solve.
func (w *Workspace) newScratch(p *lp) *simplexState {
	if w.state == nil {
		w.state = new(simplexState)
	}
	w.state.bind(p)
	return w.state
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
