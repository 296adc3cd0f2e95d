package main

import (
	"math/rand"
	"sort"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
	"tetrisched/internal/shard"
	"tetrisched/internal/strl"
	"tetrisched/internal/strlgen"
	"tetrisched/internal/workload"
)

// capture is the input of one busy cycle as the harness knew it: the pending
// jobs in queue order and each node's believed release slice, rebuilt from
// the harness's own launch record. It need not equal the scheduler's private
// beliefs (the scheduler knows which option it chose; the harness only sees
// the placement), but it is the same for the same seed.
type capture struct {
	now  int64
	jobs []*workload.Job
	rel  []int64
}

// captureTarget is how many cycle inputs a traced run keeps for the replay:
// enough for a p95 under the ten-samples-beyond rule.
const captureTarget = 200

// captureSet keeps every stride-th busy cycle of a run, doubling the stride
// whenever it holds twice the target, so a run of any length ends with
// between captureTarget and 2×captureTarget evenly spaced captures.
type captureSet struct {
	stride, seen int
	items        []capture
}

func (cs *captureSet) offer(p *probe, now int64) {
	if cs.stride == 0 {
		cs.stride = 1
	}
	cs.seen++
	if (cs.seen-1)%cs.stride != 0 {
		return
	}
	cs.items = append(cs.items, p.capture(now))
	if len(cs.items) >= 2*captureTarget {
		kept := cs.items[:0]
		for i := 0; i < len(cs.items); i += 2 {
			kept = append(kept, cs.items[i])
		}
		cs.items = kept
		cs.stride *= 2
	}
}

// queueClass mirrors the scheduler's three priority queues (§6.3).
func queueClass(j *workload.Job) int {
	switch {
	case j.Class == workload.SLO && j.Reserved:
		return 0
	case j.Class == workload.SLO:
		return 1
	}
	return 2
}

func (p *probe) capture(now int64) capture {
	jobs := make([]*workload.Job, 0, len(p.or.pending))
	for _, j := range p.or.pending {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		if ca, cb := queueClass(ja), queueClass(jb); ca != cb {
			return ca < cb
		}
		if ja.Submit != jb.Submit {
			return ja.Submit < jb.Submit
		}
		if ja.AdmitSeq != jb.AdmitSeq {
			return ja.AdmitSeq < jb.AdmitSeq
		}
		return ja.ID < jb.ID
	})
	rel := make([]int64, p.or.claimed.Cap())
	for _, l := range p.or.running {
		end := l.at + l.job.EstRuntime(workload.PlacementPreferred(p.c, l.job, l.nodes))
		if end <= now {
			end = now + cyclePeriod
		}
		slices := (end - now + cyclePeriod - 1) / cyclePeriod
		for _, n := range l.nodes {
			rel[n] = slices
		}
	}
	return capture{now: now, jobs: jobs, rel: rel}
}

// layers is what the replay needs to know about a workload's scheduler
// configuration to call the layer functions the way the scheduler does.
type layers struct {
	c         *cluster.Cluster
	period    int64
	planAhead int64
	maxBatch  int
	shards    int
}

// replayStats is the cold per-stage cost of the captured cycles.
type replayStats struct {
	samples int

	genNS, genJobs, options, culled int64

	compileMS, componentsUS, fingerprintUS, decodeUS sample
	assignUS, presolveMS, solveMS                    sample

	vars, rows, comps                      int64
	solverRows                             int64 // rows the solver was handed, over all sub-models
	nodes, lpIters, warmLPs, coldLPs       int64
	rowsDropped, cutRounds, factorizations int64
	solves, optimal                        int64
}

// replay pushes captured cycle inputs through the public layer functions one
// stage at a time — generate, compile, decompose, fingerprint, presolve,
// solve, decode — and times each stage cold. It visits the captures in a
// fixed shuffled order and stops when the budget is spent, so a short budget
// still samples the whole run.
func replay(l layers, caps []capture, budget time.Duration) *replayStats {
	st := &replayStats{}
	gen := strlgen.New(l.c, strlgen.Default(l.period, l.planAhead))
	horizon := l.planAhead / l.period
	if horizon < 1 {
		horizon = 1
	}
	var shardSets []*bitset.Set
	if l.shards > 0 {
		shardSets = shard.ByProfile{}.Partition(l.c, l.shards)
	}
	mopts := milp.Options{Gap: 0.1, TimeLimit: 2 * time.Second, Workers: 1, Deterministic: true}
	if l.shards > 1 {
		mopts.Workers = l.shards
	}
	order := rand.New(rand.NewSource(1)).Perm(len(caps))
	deadline := time.Now().Add(budget)
	for _, ci := range order {
		if st.samples > 0 && time.Now().After(deadline) {
			break
		}
		cp := caps[ci]

		t0 := time.Now()
		reqs := make([]*strlgen.Request, 0, len(cp.jobs))
		for _, j := range cp.jobs {
			if req := gen.Generate(cp.now, j); req != nil {
				reqs = append(reqs, req)
				st.options += int64(len(req.Options))
			} else {
				st.culled++
			}
		}
		st.genNS += int64(time.Since(t0))
		st.genJobs += int64(len(cp.jobs))
		if len(reqs) == 0 {
			continue
		}
		if len(reqs) > l.maxBatch {
			reqs = reqs[:l.maxBatch]
		}
		exprs := make([]strl.Expr, len(reqs))
		for i, r := range reqs {
			exprs[i] = r.Expr
		}

		t0 = time.Now()
		comp, err := compiler.Compile(exprs, compiler.Options{
			Universe: l.c.N(), Horizon: horizon, ReleaseAt: cp.rel})
		if err != nil {
			continue
		}
		st.compileMS.add(ms(time.Since(t0)))

		var comps []*compiler.Component
		if shardSets != nil {
			t0 = time.Now()
			assign, _ := shard.Assign(shardSets, reqs)
			st.assignUS.add(us(time.Since(t0)))
			t0 = time.Now()
			comps = comp.ForcedComponents(assign, len(shardSets))
		} else {
			t0 = time.Now()
			comps = comp.Components()
		}
		st.componentsUS.add(us(time.Since(t0)))

		t0 = time.Now()
		for _, cc := range comps {
			comp.ComponentFingerprint(cc)
		}
		st.fingerprintUS.add(us(time.Since(t0)))

		t0 = time.Now()
		for _, cc := range comps {
			milp.Presolve(cc.Model)
		}
		st.presolveMS.add(ms(time.Since(t0)))

		t0 = time.Now()
		var sol *milp.Solution
		if len(comps) > 1 {
			parts := make([]milp.Part, len(comps))
			for i, cc := range comps {
				parts[i] = milp.Part{Model: cc.Model, VarMap: cc.VarMap, Heuristic: cc.GreedyRound}
			}
			sol, _, err = milp.SolveParts(parts, comp.Model.NumVars(), mopts)
		} else {
			o := mopts
			o.Heuristic = comp.GreedyRound
			sol, err = milp.Solve(comp.Model, o)
		}
		st.solveMS.add(ms(time.Since(t0)))
		st.samples++
		st.vars += int64(comp.Model.NumVars())
		st.rows += int64(comp.Model.NumConstraints())
		st.comps += int64(len(comps))
		for _, cc := range comps {
			// A forced decomposition copies every row it cuts into each side,
			// so this can exceed the compiled model's row count.
			st.solverRows += int64(cc.Model.NumConstraints())
		}
		if err != nil || sol == nil {
			continue
		}
		st.solves++
		st.nodes += int64(sol.Nodes)
		st.lpIters += sol.LP.Iterations
		st.warmLPs += int64(sol.LP.WarmHits)
		st.coldLPs += int64(sol.LP.ColdStarts)
		st.rowsDropped += int64(sol.Presolve.RowsDropped)
		st.cutRounds += int64(sol.Cuts.Rounds)
		st.factorizations += sol.LP.Factorizations
		if sol.Status == milp.StatusOptimal {
			st.optimal++
		}
		if sol.Values != nil {
			t0 = time.Now()
			comp.Decode(sol)
			st.decodeUS.add(us(time.Since(t0)))
		}
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
