package milp

import "time"

// Fresh-memory constructors for the tests that drive the LP kernel directly.

func newLP(model *Model) *lp { return new(Workspace).newLP(model) }

func newScratch(p *lp) *simplexState { return new(Workspace).newScratch(p) }

func solveLP(p *lp, lb, ub []float64, maxIter int) (lpStatus, []float64, error) {
	return newScratch(p).solve(lb, ub, maxIter, time.Time{})
}
