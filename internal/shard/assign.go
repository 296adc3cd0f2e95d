package shard

import (
	"tetrisched/internal/bitset"
	"tetrisched/internal/strlgen"
)

// Assign routes each generated request to a shard. The score of shard s for a
// request is the sum over its options of a satisfiability-weighted vote: an
// option whose leaf can fit entirely inside the shard (|leaf set ∩ shard| ≥
// K) contributes 4 when it is the job's preferred placement and 1 otherwise.
// The job goes to the highest-scoring shard; ties break by job ID modulo the
// tied count, which both balances load and — because the score depends only
// on the partition and the job's own options — keeps the assignment stable
// across cycles, preserving per-shard fingerprint-cache hits.
//
// A request no single shard can satisfy on any option (a gang whose node
// demand spans shards) is assigned class len(sets): the arbitrator. The
// returned assign slice is indexed like reqs; spanning counts the arbitrator
// routings.
func Assign(sets []*bitset.Set, reqs []*strlgen.Request) (assign []int, spanning int) {
	assign = make([]int, len(reqs))
	if len(sets) == 1 {
		// Nothing can span a single shard; this also pins the single-shard
		// configuration to the monolithic decomposition exactly (the parity
		// property the kill switch is tested against).
		return assign, 0
	}
	scores := make([]int, len(sets))
	ties := make([]int, 0, len(sets))
	for ri, req := range reqs {
		best := 0
		for s := range scores {
			scores[s] = 0
		}
		for i := range req.Options {
			o := &req.Options[i]
			for s, set := range sets {
				if o.Leaf.Set.IntersectCount(set) >= o.Leaf.K {
					if o.Preferred {
						scores[s] += 4
					} else {
						scores[s]++
					}
				}
			}
		}
		for _, sc := range scores {
			if sc > best {
				best = sc
			}
		}
		if best == 0 {
			assign[ri] = len(sets) // spans shards: arbitrator
			spanning++
			continue
		}
		ties = ties[:0]
		for s, sc := range scores {
			if sc == best {
				ties = append(ties, s)
			}
		}
		assign[ri] = ties[req.Job.ID%len(ties)]
	}
	return assign, spanning
}
