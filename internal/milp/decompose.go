package milp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Part is one independent sub-model of a decomposed MILP. The sub-models of
// one SolveParts call must reference pairwise-disjoint slices of the original
// variable space; VarMap carries the embedding.
type Part struct {
	// Model is the sub-model to solve.
	Model *Model
	// VarMap maps the sub-model's variable index to the full model's. Nil
	// means identity (the part covers a prefix of the full variable space —
	// in practice, the single-part case where Model is the full model).
	VarMap []int
	// Seed, if non-nil and feasible, seeds the part's incumbent
	// (Options.InitialSolution, in the part's own variable space).
	Seed []float64
	// Heuristic is the part's incumbent heuristic (Options.Heuristic, in the
	// part's own variable space).
	Heuristic func(relaxation []float64) []float64
	// OnSolve, if non-nil, is invoked on the worker that solves the part just
	// before its solve begins; the returned function is invoked with the
	// part's solution (nil on solver error) when it ends. Callers use it to
	// open and close per-part trace spans with correct timing.
	OnSolve func() func(*Solution)
	// Reuse, if non-nil, is a previously computed solution for this part's
	// model (same variable space, proven under identical inputs — the
	// caller's fingerprint is the witness); SolveParts adopts it verbatim
	// instead of solving. It contributes no node/LP/presolve/runtime telemetry
	// to the merge — only its Values, Objective, Bound, and Status.
	Reuse *Solution
	// Out, if non-nil, is where the part's solve writes its Solution instead
	// of allocating one, with the Values in Out.Values' memory when that has
	// room for the part's variables. The memory is the caller's, and the
	// Solution's for as long as the caller keeps the Solution: it may go to
	// another solve only once that one is dropped. Each part of one call needs
	// its own. A Reuse part's Out is not touched.
	Out *Solution
}

// SolveParts solves the independent parts of a decomposed model on at most
// GOMAXPROCS workers and merges the results as if a single Solve had run on
// the full model:
//
//   - Values is a full-length vector (fullVars entries) scattered from the
//     part solutions through their VarMaps; variables of parts that produced
//     no solution stay zero.
//   - Objective and Bound are sums over the parts that produced values (a
//     failed part contributes no bound, so Bound is only proven relative to
//     the solved parts).
//   - Nodes, LP telemetry, and Runtime are sums over every part that ran —
//     Runtime is therefore aggregate solver effort, not wall-clock, which is
//     roughly Runtime divided by the workers that solved the parts. Parts
//     adopted from a Reuse solution contribute values but no effort telemetry.
//
// Options apply per part: each part has the Gap, TimeLimit and MaxNodes
// budgets to itself, and TimeLimit counts the part's own LP work. Each part's
// search is the serial search a lone Solve of its model runs, whatever its
// siblings are doing and whichever worker runs it.
//
// Status merging: any infeasible or unbounded part makes the whole solve
// infeasible/unbounded (Values nil — the full model has no solution); else if
// every part proved optimality the merge is optimal; else feasible when at
// least one part returned values, and no-solution when none did.
//
// The returned slice holds each part's own Solution (nil where the part's
// Solve returned an error), for callers that need to know which parts failed.
func SolveParts(parts []Part, fullVars int, opts Options) (*Solution, []*Solution, error) {
	return (*WorkspaceList)(nil).SolveParts(parts, fullVars, opts)
}

// SolveParts is the package-level SolveParts with every part's solve borrowing
// a workspace from the list for as long as it runs.
func (l *WorkspaceList) SolveParts(parts []Part, fullVars int, opts Options) (*Solution, []*Solution, error) {
	for i := range parts {
		p := &parts[i]
		if p.Model == nil {
			break // SolveEach reports it
		}
		if p.VarMap == nil {
			if p.Model.NumVars() > fullVars {
				return nil, nil, fmt.Errorf("milp: part %d has %d vars for a %d-var full model", i, p.Model.NumVars(), fullVars)
			}
			continue
		}
		if len(p.VarMap) != p.Model.NumVars() {
			return nil, nil, fmt.Errorf("milp: part %d VarMap has %d entries for %d vars", i, len(p.VarMap), p.Model.NumVars())
		}
		for _, fv := range p.VarMap {
			if fv < 0 || fv >= fullVars {
				return nil, nil, fmt.Errorf("milp: part %d VarMap entry %d out of range [0,%d)", i, fv, fullVars)
			}
		}
	}
	sols, err := l.solveEach(parts, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	return mergeParts(parts, sols, fullVars, new(Solution)), sols, nil
}

// SolveEach is SolveParts for a caller that reads the parts' own solutions,
// written into sols' memory (grown only when too small): the parts need not be
// slices of one model (VarMap is ignored), and the merged Solution, written
// into merged, carries SolveParts' status, objective, bound and telemetry but
// no Values. Reuse parts are adopted on the caller's goroutine, and the live
// ones run on min(live, GOMAXPROCS) workers, the caller one of them.
func (l *WorkspaceList) SolveEach(parts []Part, opts Options, merged *Solution, sols []*Solution) (*Solution, []*Solution, error) {
	sols, err := l.solveEach(parts, opts, sols)
	if err != nil {
		return nil, nil, err
	}
	return mergeParts(parts, sols, -1, merged), sols, nil
}

func (l *WorkspaceList) solveEach(parts []Part, opts Options, sols []*Solution) ([]*Solution, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("milp: SolveParts requires at least one part")
	}
	live := 0
	for i := range parts {
		if parts[i].Model == nil {
			return nil, fmt.Errorf("milp: part %d has no model", i)
		}
		if parts[i].Reuse == nil {
			live++
		}
	}
	f := &fanOut{l: l, parts: parts, opts: opts, sols: zeroed(sols, len(parts))}
	for i := range parts {
		if parts[i].Reuse != nil {
			f.run(nil, i)
		}
	}
	// The live parts go to min(live, GOMAXPROCS) workers, the caller one of
	// them, in index order; a worker solves on one workspace from the list.
	work := f.work
	for range min(live, runtime.GOMAXPROCS(0)) - 1 {
		f.wg.Add(1)
		go work()
	}
	if live > 0 {
		f.wg.Add(1)
		work()
	}
	f.wg.Wait()
	return f.sols, nil
}

// fanOut is what the workers of one SolveEach call share, in one object: the
// call's only allocations are it and its work method's value.
type fanOut struct {
	l     *WorkspaceList
	parts []Part
	opts  Options
	sols  []*Solution
	next  atomic.Int64 // the next part to hand out
	wg    sync.WaitGroup
}

// run solves part i on ws, or adopts its Reuse solution.
func (f *fanOut) run(ws *Workspace, i int) {
	p := &f.parts[i]
	var done func(*Solution)
	if p.OnSolve != nil {
		done = p.OnSolve()
	}
	if f.sols[i] = p.Reuse; f.sols[i] == nil {
		po := f.opts
		po.InitialSolution, po.Heuristic = p.Seed, p.Heuristic
		if sol, err := ws.solveInto(p.Out, p.Model, po); err == nil {
			f.sols[i] = sol
		}
	}
	if done != nil {
		done(f.sols[i])
	}
}

// work is one worker: it solves the live parts it takes on one workspace from
// the list.
func (f *fanOut) work() {
	defer f.wg.Done()
	ws := f.l.Get()
	for i := int(f.next.Add(1)) - 1; i < len(f.parts); i = int(f.next.Add(1)) - 1 {
		if f.parts[i].Reuse == nil {
			f.run(ws, i)
		}
	}
	f.l.Put(ws)
}

// mergeParts folds per-part solutions into one full-model Solution, written
// into merged; see SolveParts for the merge semantics. A negative fullVars
// leaves Values out.
func mergeParts(parts []Part, sols []*Solution, fullVars int, merged *Solution) *Solution {
	*merged = Solution{}
	succeeded, optimal, infeasible, unbounded := 0, 0, false, false
	for i, sol := range sols {
		if sol == nil {
			continue
		}
		if parts[i].Reuse == nil {
			// Replayed parts did no search this call; folding their recorded
			// effort back in would double-count it every cycle they survive.
			merged.Nodes += sol.Nodes
			merged.LP.add(&sol.LP)
			merged.Presolve.add(&sol.Presolve)
			merged.Cuts.add(&sol.Cuts)
			merged.Branch.add(&sol.Branch)
			merged.Runtime += sol.Runtime
		}
		switch sol.Status {
		case StatusInfeasible:
			infeasible = true
			continue
		case StatusUnbounded:
			unbounded = true
			continue
		}
		if sol.Values == nil {
			continue
		}
		succeeded++
		if sol.Status == StatusOptimal {
			optimal++
		}
		merged.Objective += sol.Objective
		merged.Bound += sol.Bound
		if fullVars < 0 {
			continue
		}
		if merged.Values == nil {
			merged.Values = make([]float64, fullVars)
		}
		if parts[i].VarMap == nil {
			copy(merged.Values, sol.Values)
		} else {
			for si, fv := range parts[i].VarMap {
				merged.Values[fv] = sol.Values[si]
			}
		}
	}
	switch {
	case infeasible:
		merged.Status = StatusInfeasible
		merged.Values = nil
	case unbounded:
		merged.Status = StatusUnbounded
		merged.Values = nil
	case succeeded == 0:
		merged.Status = StatusNoSolution
	case optimal == len(parts):
		merged.Status = StatusOptimal
	default:
		merged.Status = StatusFeasible
	}
	return merged
}
