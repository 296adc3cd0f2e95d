package core

// Churn-proportional cycle front end (docs/SOLVER.md "Compile cache").
// Incremental reuse (incremental.go) made the *solve* phase proportional to
// churn, which left per-job STRL generation and the global compile —
// partition, Algorithm 1 lowering, supply rows, component extraction — as
// the dominant steady-state cost. Two caches remove it:
//
//   - Expression cache: each pending job's generated request is kept with
//     the expiry bound strlgen.GenerateTTL derives from the job's value
//     function, and reused verbatim — same leaf pointers — until the bound
//     passes or an event dirties the job. Value functions are step
//     functions of time (SLO value is constant until the deadline-driven
//     option cull; a floored best-effort value never moves again), so most
//     requests are reusable for many cycles.
//
//   - Whole-batch compile cache: when this cycle's post-truncation request
//     list is pointer-identical to the one compiled last cycle and the
//     believed release slices are equal, the compiler's inputs are
//     byte-identical (the universe, horizon, and shard routing are all
//     deterministic functions of them), so last cycle's Compiled, component
//     decomposition, and shard assignment are reused verbatim. The reused
//     components keep their memoized fingerprints, feeding the solve-reuse
//     path with zero generate/compile/fingerprint work.
//
// Both caches reuse only provably identical inputs, the same contract the
// solve-reuse cache honors, so cache-on and cache-off runs make
// byte-identical decisions (TestCompileCacheParityProperty); the kill
// switch is Config.DisableCompileCache (-no-compile-cache).

import (
	"tetrisched/internal/compiler"
	"tetrisched/internal/strlgen"
)

// exprEntry is one cached per-job STRL request.
type exprEntry struct {
	req        *strlgen.Request
	validUntil int64 // last cycle time at which req is still byte-identical
}

// feState caches one cycle's entire compile output: the batch it was built
// from (request pointers + believed release slices) and everything the
// global cycle derives from it before solving. comp and comps live in the
// scheduler's compScr and die at its next Compile, so globalCycle drops the
// entry before it compiles a batch the cache missed on — whether or not that
// compile succeeds.
type feState struct {
	valid    bool
	reqs     []*strlgen.Request
	rel      []int64
	comp     *compiler.Compiled
	comps    []*compiler.Component
	assign   []int // shard routing, nil when monolithic
	spanning int   // jobs routed to the gang arbitrator
}

// feEnabled reports whether the front-end caches are active. Greedy mode
// (TetriSched-NG) compiles per job with tentative claims threaded between
// solves — there is no cycle-level batch to cache.
func (s *Scheduler) feEnabled() bool { return !s.cfg.DisableCompileCache && !s.cfg.Greedy }

// purgeFrontEnd drops the job's cached expression and, when the cached batch
// names the job, the whole-batch compile cache. Called from markJobDirty so
// every event that can change a job's request (launch, finish, drop,
// preemption, resubmit) invalidates eagerly; a capacity change without a
// job event is caught by the release-slice comparison in feLookup instead.
func (s *Scheduler) purgeFrontEnd(id int) {
	if s.exprCache == nil {
		return
	}
	delete(s.exprCache, id)
	if !s.fe.valid {
		return
	}
	for _, r := range s.fe.reqs {
		if r.Job.ID == id {
			s.fe = feState{}
			return
		}
	}
}

// feLookup reports whether the cached compile output can stand in for
// compiling this cycle's batch: the request list must be pointer-identical
// element for element (the expression cache makes steady-state requests
// pointer-stable) and the believed release slices equal, which together
// make every compiler input byte-identical.
func (s *Scheduler) feLookup(reqs []*strlgen.Request, rel []int64) bool {
	fe := &s.fe
	if !fe.valid || len(fe.reqs) != len(reqs) || len(fe.rel) != len(rel) {
		return false
	}
	for i, r := range reqs {
		if fe.reqs[i] != r {
			return false
		}
	}
	for i, v := range rel {
		if fe.rel[i] != v {
			return false
		}
	}
	return true
}

// feStore caches this cycle's compile output for the next cycle's lookup.
// The reqs and rel slices are freshly built each cycle and never mutated
// afterwards, so they are retained directly.
func (s *Scheduler) feStore(reqs []*strlgen.Request, rel []int64, comp *compiler.Compiled, comps []*compiler.Component, assign []int, spanning int) {
	s.fe = feState{valid: true, reqs: reqs, rel: rel, comp: comp, comps: comps, assign: assign, spanning: spanning}
}
