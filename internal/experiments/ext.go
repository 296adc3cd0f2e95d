package experiments

import (
	"fmt"
	"io"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/workload"
)

// ExtScale is the companion-TR scalability experiment (§7.3): the paper's
// technical report scales TetriSched to a 1000-node simulated cluster and
// reports that cycle latency distributions degrade only mildly. This sweep
// runs the GS HET workload, scaled to hold per-node load constant, across
// cluster sizes and reports scheduling quality and real solver/cycle
// latencies of this implementation.
func ExtScale(w io.Writer, sc Scale) error {
	type point struct {
		name  string
		c     *cluster.Cluster
		scale int // workload multiplier vs RC80
	}
	points := []point{
		{"RC80 (80)", cluster.RC80(true), 1},
		{"RC256 (256)", cluster.RC256(true), 3},
		{"RC1000 (1024)", rc1000(), 12},
	}
	fmt.Fprintln(w, "\nExtension (TR §7.3) — scalability with cluster size [GS_HET, constant per-node load]")
	fmt.Fprintf(w, "%-14s%12s%12s%14s%14s%14s\n", "cluster", "SLO-all(%)", "BE-lat(s)", "solver-p50", "solver-p99", "cycle-mean")
	for _, p := range points {
		mix := workload.GSHET(sc.Jobs * p.scale)
		b := TetriSched(core.Config{
			CyclePeriod: sc.CyclePeriod, PlanAhead: sc.PlanAhead,
			SolverTimeLimit: sc.SolverTimeLimit,
		})
		sum, err := RunOne(p.c, mix, 1000, b, sc.CyclePeriod)
		if err != nil {
			return err
		}
		solver := metrics.NewDurationCDF(sum.SolverLatencies)
		cyc := metrics.NewDurationCDF(sum.CycleLatencies)
		fmt.Fprintf(w, "%-14s%12.1f%12.1f%12.1fms%12.1fms%12.1fms\n",
			p.name, sum.SLOAll, sum.MeanBELatency,
			solver.Percentile(50), solver.Percentile(99), cyc.Mean())
	}
	return nil
}

// ExtElastic measures the benefit of malleable best-effort jobs (the §4.1
// space-time elasticity extension): GS MIX with rigid vs elastic BE jobs.
func ExtElastic(w io.Writer, sc Scale) error {
	c := cluster.RC80(false)
	fmt.Fprintln(w, "\nExtension — elastic (malleable) best-effort jobs [RC80, GS_MIX variant]")
	fmt.Fprintf(w, "%-28s%12s%14s%12s\n", "workload", "SLO-all(%)", "BE-latency(s)", "util(%)")
	for _, elastic := range []bool{false, true} {
		mix := workload.GSMIX(sc.Jobs)
		mix.TargetUtil = 1.3
		label := "rigid BE jobs"
		if elastic {
			// A third of the workload becomes malleable.
			mix.UnconstrainedFrac = 2.0 / 3
			mix.ElasticFrac = 1.0 / 3
			label = "1/3 elastic jobs"
		}
		sum, err := Averaged(c, mix, sc, tetri(sc))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s%12.1f%14.1f%12.1f\n", label, sum.SLOAll, sum.MeanBELatency, 100*sum.Utilization)
	}
	return nil
}

// rc1000 builds the TR's thousand-node cluster: 16 racks × 64 nodes, 4 racks
// GPU-labeled (same 25% ratio as RC80/RC256 het variants).
func rc1000() *cluster.Cluster {
	b := cluster.NewBuilder()
	for r := 0; r < 16; r++ {
		var attrs map[string]string
		if r < 4 {
			k, v := cluster.GPUAttr()
			attrs = map[string]string{k: v}
		}
		b.AddRack(fmt.Sprintf("r%d", r), 64, attrs)
	}
	return b.Build()
}
