package milp

// Fresh-memory constructors for the tests that drive the LP kernel directly.

func newLP(model *Model) *lp { return new(Workspace).newLP(model) }

func newScratch(p *lp) *simplexState { return new(Workspace).newScratch(p) }

func solveLP(p *lp, lb, ub []float64, maxIter int) (lpStatus, []float64, error) {
	return newScratch(p).solve(lb, ub, maxIter)
}

// snapshot captures the scratch's basis into a freshly allocated snapshot, or
// returns nil when the basis cannot seed a warm restart.
func (s *simplexState) snapshot() *basisState {
	bs := new(Workspace).newSnapshot(s.p)
	if !s.snapshotInto(bs) {
		return nil
	}
	return bs
}
