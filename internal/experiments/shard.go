package experiments

import (
	"fmt"
	"io"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// ExtShard evaluates the sharded control plane (internal/shard) at a scale
// the monolithic planner visibly struggles with: a 10k-node cluster whose
// GS HET workload couples into one global MILP per cycle. Per-shard planners
// solve concurrently over optimistic supply copies and commit against the
// shared free set, so cycle latency should fall with the shard count while
// commit-time conflict resolution keeps SLO attainment within noise of the
// monolithic policy. The sweep prints both, plus the conflict/arbitrator
// telemetry that explains the residual gap.
func ExtShard(w io.Writer, sc Scale) error {
	c := RC10K()
	mix := workload.GSHET(sc.Jobs * 8)
	fmt.Fprintln(w, "\nExtension — sharded shared-state scheduling [RC10K (10240 nodes), GS_HET]")
	fmt.Fprintf(w, "%-14s%12s%12s%12s%12s%12s%12s\n",
		"planners", "SLO-all(%)", "cycle-mean", "cycle-p99", "conflicts", "requeued", "spanning")
	for _, shards := range []int{0, 4, 16} {
		name := "monolithic"
		if shards > 0 {
			name = fmt.Sprintf("%d shards", shards)
		}
		sum, sh, err := RunSharded(c, mix, 1000, sc, shards)
		if err != nil {
			return err
		}
		cyc := metrics.NewDurationCDF(sum.CycleLatencies)
		fmt.Fprintf(w, "%-14s%12.1f%10.1fms%10.1fms%12d%12d%12d\n",
			name, sum.SLOAll, cyc.Mean(), cyc.Percentile(99),
			sh.Conflicts, sh.Requeued, sh.Spanning)
	}
	return nil
}

// RunSharded runs one seeded simulation of the mix on the cluster with the
// given shard count (0 = monolithic) and returns the summary plus the shard
// telemetry. Shared by ExtShard and the root BenchmarkShardedCycle* suite.
func RunSharded(c *cluster.Cluster, mix workload.Mix, seed int64, sc Scale, shards int) (metrics.Summary, core.ShardStats, error) {
	jobs, err := workload.Generate(mix, c, seed)
	if err != nil {
		return metrics.Summary{}, core.ShardStats{}, err
	}
	sched := core.New(c, core.Config{
		CyclePeriod: sc.CyclePeriod, PlanAhead: sc.PlanAhead,
		SolverTimeLimit: sc.SolverTimeLimit, Shards: shards,
	})
	plan := rayon.NewPlan(c.N(), sc.CyclePeriod)
	res, err := sim.Run(sim.Config{
		Cluster: c, Jobs: jobs, Scheduler: sched, Plan: plan, CyclePeriod: sc.CyclePeriod,
	})
	if err != nil {
		return metrics.Summary{}, core.ShardStats{}, fmt.Errorf("%d shards seed %d: %w", shards, seed, err)
	}
	if res.Stalled {
		return metrics.Summary{}, core.ShardStats{}, fmt.Errorf("%d shards seed %d: simulation stalled", shards, seed)
	}
	return metrics.Summarize(sched.Name(), res, c.N()), sched.ShardStatsSnapshot(), nil
}

// RC10K builds the sharding experiment's cluster: 128 racks of 80 nodes
// (10240 total), the leading 32 racks GPU-labeled (the same 25% ratio as the
// paper's RC80/RC256 heterogeneous variants).
func RC10K() *cluster.Cluster {
	b := cluster.NewBuilder()
	for r := 0; r < 128; r++ {
		var attrs map[string]string
		if r < 32 {
			k, v := cluster.GPUAttr()
			attrs = map[string]string{k: v}
		}
		b.AddRack(fmt.Sprintf("r%d", r), 80, attrs)
	}
	return b.Build()
}
