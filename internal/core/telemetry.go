package core

import (
	"time"

	"tetrisched/internal/telemetry"
)

// SolverMetrics is the one place a SolveStats value is named for the outside:
// its key in /v1/status's solver block and tetrisim -v's lines (by group), its
// /metrics name, kind and help. A new scheduler counter is a field, its line in
// record, and a row here; a new solver counter is a field of milp.LPStats or
// milp.BranchStats, summed by their Add, and a row here. docs/OBSERVABILITY.md's
// tables are generated from the rows.
var SolverMetrics = []telemetry.Metric[SolveStats]{
	telemetry.Row("solver", "solves", "tetrisched_solver_solves_total", "counter", "MILP solves across all cycles.", func(s *SolveStats) any { return s.Solves }),
	telemetry.Row("solver", "bb_nodes", "tetrisched_solver_bb_nodes_total", "counter", "Branch-and-bound nodes explored.", func(s *SolveStats) any { return s.Nodes }),
	telemetry.Row("solver", "bb_nodes_max", "tetrisched_solver_bb_nodes_max", "gauge", "Largest single-solve node count.", func(s *SolveStats) any { return s.MaxNodes }),
	telemetry.Row("solver", "warm_starts", "tetrisched_solver_warm_starts_total", "counter", "Solves seeded with the previous cycle's plan.", func(s *SolveStats) any { return s.WarmStarts }),
	telemetry.Row("solver", "lp_iterations", "tetrisched_solver_lp_iterations_total", "counter", "Simplex pivots across all relaxations.", func(s *SolveStats) any { return s.LP.Iterations }),
	telemetry.Row("solver", "lp_phase1", "tetrisched_solver_lp_phase1_total", "counter", "LPs that needed an artificial phase 1.", func(s *SolveStats) any { return s.LP.Phase1 }),
	telemetry.Row("solver", "lp_warm_hits", "tetrisched_solver_lp_warm_hits_total", "counter", "Node LPs re-solved warm from a parent basis.", func(s *SolveStats) any { return s.LP.WarmHits }),
	telemetry.Row("solver", "lp_cold_starts", "tetrisched_solver_lp_cold_starts_total", "counter", "LPs solved from scratch, warm fallbacks included.", func(s *SolveStats) any { return s.LP.ColdStarts }),
	telemetry.Row("solver", "lp_warm_fallbacks", "tetrisched_solver_lp_warm_fallbacks_total", "counter", "Warm restarts abandoned for the cold path (stale snapshot, failed refactorization, stalled dual phase).", func(s *SolveStats) any { return s.LP.WarmFallbacks }),
	telemetry.Row("solver", "lp_warm_hit_rate", "tetrisched_solver_lp_warm_hit_rate", "gauge", "Fraction of node LPs served warm.", func(s *SolveStats) any { return s.WarmHitRate() }),
	telemetry.Row("solver", "decomposed_solves", "tetrisched_solver_decomposed_total", "counter", "Global solves split into independent components.", func(s *SolveStats) any { return s.Decomposed }),
	telemetry.Row("solver", "components", "tetrisched_solver_components_total", "counter", "Sub-MILPs solved across all decomposed solves.", func(s *SolveStats) any { return s.Components }),
	telemetry.Row("solver", "unproven", "tetrisched_solver_unproven_total", "counter", "Sub-solves that ended without an optimality proof (cut off by the work budget or the node limit, with an incumbent or none). The budget counts LP work, so where a solve stops does not depend on machine speed.", func(s *SolveStats) any { return s.Unproven }),
	telemetry.Row("solver", "mean_solve_millis", "", "gauge", "Mean wall-clock per MILP solve.", func(s *SolveStats) any { return s.MeanSolve() }),
	telemetry.Row("solver", "max_solve_millis", "", "gauge", "Slowest single MILP solve.", func(s *SolveStats) any { return s.MaxSolve }),

	telemetry.Row("basis", "lp_factorizations", "tetrisched_solver_lp_factorizations_total", "counter", "Sparse LU basis factorizations.", func(s *SolveStats) any { return s.LP.Factorizations }),
	telemetry.Row("basis", "lp_eta_updates", "tetrisched_solver_lp_eta_updates_total", "counter", "Forrest-Tomlin eta updates applied between refactorizations.", func(s *SolveStats) any { return s.LP.EtaUpdates }),
	telemetry.Row("basis", "lp_degenerate_pivots", "tetrisched_solver_lp_degenerate_pivots_total", "counter", "Basis changes whose step is 0: the basis moves, the objective does not.", func(s *SolveStats) any { return s.LP.Degenerate }),
	telemetry.Row("basis", "lp_unstable_factors", "tetrisched_solver_lp_unstable_factors_total", "counter", "LU factorizations rejected for element growth and repeated with strict partial pivoting.", func(s *SolveStats) any { return s.LP.UnstableFactors }),

	telemetry.Row("branching", "pseudocost_branches", "tetrisched_solver_pseudocost_branches_total", "counter", "Branch decisions taken by learned pseudocosts.", func(s *SolveStats) any { return s.Branch.Pseudocost }),
	telemetry.Row("branching", "fractional_branches", "tetrisched_solver_fractional_branches_total", "counter", "Branch decisions by the most-fractional fallback.", func(s *SolveStats) any { return s.Branch.Fractional }),

	telemetry.Row("reuse", "reuse_hits", "tetrisched_solver_reuse_hits_total", "counter", "Component sub-solves replayed from the previous cycle.", func(s *SolveStats) any { return s.ReuseHits }),
	telemetry.Row("reuse", "reuse_misses", "tetrisched_solver_reuse_misses_total", "counter", "Components that had to be solved.", func(s *SolveStats) any { return s.ReuseMisses }),
	telemetry.Row("reuse", "repeated_cycles", "tetrisched_solver_repeated_cycles_total", "counter", "Global cycles answered by repeating the last cycle that planned nothing new, its requests, free set and release slices unchanged.", func(s *SolveStats) any { return s.RepeatedCycles }),
	telemetry.Row("reuse", "reuse_hit_rate", "tetrisched_solver_reuse_hit_rate", "gauge", "Fraction of component sub-solves served by replay.", func(s *SolveStats) any { return s.ReuseHitRate() }),

	telemetry.Row("frontend", "expr_hits", "tetrisched_solver_expr_cache_hits_total", "counter", "Pending-job STRL requests served or trimmed from the expression cache; one trimmed to nothing drops its job and counts as neither hit nor miss.", func(s *SolveStats) any { return s.ExprHits }),
	telemetry.Row("frontend", "expr_misses", "tetrisched_solver_expr_cache_misses_total", "counter", "Pending-job STRL requests generated, once per arrival.", func(s *SolveStats) any { return s.ExprMisses }),
	telemetry.Row("frontend", "compile_skips", "tetrisched_solver_compile_skips_total", "counter", "Batch jobs whose coupling class was kept, compiled model and all.", func(s *SolveStats) any { return s.CompileSkips }),
	telemetry.Row("frontend", "compile_jobs", "tetrisched_solver_compile_jobs_total", "counter", "Batch jobs compiled into a MILP.", func(s *SolveStats) any { return s.CompileJobs }),
	telemetry.Row("frontend", "compile_skip_rate", "tetrisched_solver_compile_skip_rate", "gauge", "Fraction of batch jobs whose class was kept rather than compiled.", func(s *SolveStats) any { return s.CompileSkipRate() }),
	telemetry.Row("frontend", "generate_millis", "tetrisched_solver_generate_seconds_total", "counter", "Cumulative STRL generation wall-clock.", func(s *SolveStats) any { return time.Duration(s.GenerateNS) }),
	telemetry.Row("frontend", "compile_millis", "tetrisched_solver_compile_seconds_total", "counter", "Cumulative wall-clock from generated requests to solver input: classify into coupling classes, compile, decompose, route.", func(s *SolveStats) any { return time.Duration(s.CompileNS) }),
}

// ShardMetrics is SolverMetrics' counterpart for ShardStats: /v1/status's
// shard block, tetrisim -v's shard line and the tetrisched_shard_* metrics,
// all served only when Shards > 0 (docs/SHARDING.md).
var ShardMetrics = []telemetry.Metric[ShardStats]{
	telemetry.Row("shard", "shards", "tetrisched_shard_shards", "gauge", "Configured shard count (0 = monolithic).", func(s *ShardStats) any { return s.Shards }),
	telemetry.Row("shard", "partitioner", "", "gauge", "Partitioning strategy name.", func(s *ShardStats) any { return s.Partitioner }),
	telemetry.Row("shard", "cycles", "tetrisched_shard_cycles_total", "counter", "Sharded global cycles executed.", func(s *ShardStats) any { return s.Cycles }),
	telemetry.Row("shard", "spanning_jobs", "tetrisched_shard_spanning_jobs_total", "counter", "Jobs routed to the gang arbitrator (demand spans shards).", func(s *ShardStats) any { return s.Spanning }),
	telemetry.Row("shard", "conflicts", "tetrisched_shard_conflicts_total", "counter", "Commit-time cross-shard double-claims detected.", func(s *ShardStats) any { return s.Conflicts }),
	telemetry.Row("shard", "requeued", "tetrisched_shard_requeued_total", "counter", "Jobs requeued intact after losing a double-claim.", func(s *ShardStats) any { return s.Requeued }),
	telemetry.Row("shard", "arbitrator_launched", "tetrisched_shard_arbitrator_launched_total", "counter", "Arbitrator jobs launched.", func(s *ShardStats) any { return s.ArbLaunched }),
	telemetry.Row("shard", "arbitrator_deferred", "tetrisched_shard_arbitrator_deferred_total", "counter", "Arbitrator jobs deferred or requeued intact.", func(s *ShardStats) any { return s.ArbDeferred }),
}
