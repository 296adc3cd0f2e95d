package experiments

import (
	"fmt"
	"io"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/workload"
)

// grErrs is the estimate-error sweep of Figs 6/8/9/10 (percent).
var grErrs = []float64{-50, -20, 0, 20, 50, 100}

// narrowErrs is the Fig 7 sweep (percent).
var narrowErrs = []float64{-20, -10, 0, 10, 20}

// planAheads is the Fig 11/12 plan-ahead sweep (seconds).
var planAheads = []int64{0, 44, 96, 120, 144}

// Table1 prints the workload composition table.
func Table1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1 — Workload compositions")
	fmt.Fprintf(w, "%-10s%8s%8s%16s%8s%8s\n", "Workload", "SLO", "BE", "Unconstrained", "GPU", "MPI")
	for _, m := range []workload.Mix{workload.GRSLO(1), workload.GRMIX(1), workload.GSMIX(1), workload.GSHET(1)} {
		fmt.Fprintf(w, "%-10s%7.0f%%%7.0f%%%15.0f%%%7.0f%%%7.0f%%\n",
			m.Name, 100*m.SLOFrac, 100*(1-m.SLOFrac),
			100*m.UnconstrainedFrac, 100*m.GPUFrac, 100*m.MPIFrac)
	}
	return nil
}

// Table2 prints the scheduler ablation configurations.
func Table2(w io.Writer) error {
	fmt.Fprintln(w, "Table 2 — TetriSched configurations")
	rows := []struct{ name, desc string }{
		{"TetriSched", "all features"},
		{"TetriSched-NH", "No Heterogeneity (soft constraint awareness disabled)"},
		{"TetriSched-NG", "No Global scheduling (greedy per-job over 3 priority queues)"},
		{"TetriSched-NP", "No Plan-ahead (window = 1 cycle; alsched-equivalent)"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %s\n", r.name, r.desc)
	}
	return nil
}

// tetri builds the full-featured TetriSched at scale sc.
func tetri(sc Scale) Builder {
	return TetriSched(core.Config{
		CyclePeriod: sc.CyclePeriod, PlanAhead: sc.PlanAhead,
		SolverTimeLimit: sc.SolverTimeLimit,
	})
}

func variant(sc Scale, mod func(*core.Config)) Builder {
	cfg := core.Config{CyclePeriod: sc.CyclePeriod, PlanAhead: sc.PlanAhead,
		SolverTimeLimit: sc.SolverTimeLimit}
	mod(&cfg)
	return TetriSched(cfg)
}

// Fig6 — RC256, GR MIX: SLO attainment and BE latency vs estimate error,
// Rayon/TetriSched vs Rayon/CS.
func Fig6(w io.Writer, sc Scale) error {
	c := cluster.RC256(false)
	mix := workload.GRMIX(sc.Jobs)
	mix.TargetUtil = 1.3 // near-saturation, as in §6.4
	s, err := errSweep(c, mix, grErrs, sc, []Builder{RayonCS(), tetri(sc)})
	if err != nil {
		return err
	}
	s.printMetric(w, "Fig 6(a) — SLO attainment, all SLO jobs (%) [RC256, GR_MIX]", sloAll, "%")
	s.printMetric(w, "Fig 6(b) — SLO attainment, jobs w/ reservations (%) [RC256, GR_MIX]", sloAccepted, "%")
	s.printMetric(w, "Fig 6(c) — SLO attainment, jobs w/o reservations (%) [RC256, GR_MIX]", sloNoRes, "%")
	s.printMetric(w, "Fig 6(d) — Best-effort mean latency (s) [RC256, GR_MIX]", beLatency, "s")
	return nil
}

// Fig7 — RC256, GR SLO (SLO-only): attainment vs estimate error.
func Fig7(w io.Writer, sc Scale) error {
	c := cluster.RC256(false)
	mix := workload.GRSLO(sc.Jobs)
	mix.TargetUtil = 1.3
	s, err := errSweep(c, mix, narrowErrs, sc, []Builder{RayonCS(), tetri(sc)})
	if err != nil {
		return err
	}
	s.printMetric(w, "Fig 7(a) — SLO attainment, all SLO jobs (%) [RC256, GR_SLO]", sloAll, "%")
	s.printMetric(w, "Fig 7(b) — SLO attainment, accepted SLO jobs (%) [RC256, GR_SLO]", sloAccepted, "%")
	s.printMetric(w, "Fig 7(c) — SLO attainment, jobs w/o reservations (%) [RC256, GR_SLO]", sloNoRes, "%")
	return nil
}

// Fig8 — RC80, GS MIX: attainment and latency vs estimate error.
func Fig8(w io.Writer, sc Scale) error {
	c := cluster.RC80(false)
	mix := workload.GSMIX(sc.Jobs)
	mix.TargetUtil = 1.3
	s, err := errSweep(c, mix, grErrs, sc, []Builder{RayonCS(), tetri(sc)})
	if err != nil {
		return err
	}
	s.printMetric(w, "Fig 8(a) — SLO attainment, all SLO jobs (%) [RC80, GS_MIX]", sloAll, "%")
	s.printMetric(w, "Fig 8(b) — SLO attainment, accepted SLO jobs (%) [RC80, GS_MIX]", sloAccepted, "%")
	s.printMetric(w, "Fig 8(c) — Best-effort mean latency (s) [RC80, GS_MIX]", beLatency, "s")
	return nil
}

// Fig9 — RC80, GS HET: soft-constraint ablation (TetriSched vs
// TetriSched-NH vs Rayon/CS) vs estimate error.
func Fig9(w io.Writer, sc Scale) error {
	c := cluster.RC80(true)
	mix := workload.GSHET(sc.Jobs)
	errs := []float64{-50, -20, 0, 20, 50}
	s, err := errSweep(c, mix, errs, sc, []Builder{
		RayonCS(), tetri(sc),
		variant(sc, func(c *core.Config) { c.NoHet = true }),
	})
	if err != nil {
		return err
	}
	s.printMetric(w, "Fig 9(a) — SLO attainment, all SLO jobs (%) [RC80, GS_HET]", sloAll, "%")
	s.printMetric(w, "Fig 9(b) — SLO attainment, accepted SLO jobs (%) [RC80, GS_HET]", sloAccepted, "%")
	s.printMetric(w, "Fig 9(c) — SLO attainment, jobs w/o reservations (%) [RC80, GS_HET]", sloNoRes, "%")
	s.printMetric(w, "Fig 9(d) — Best-effort mean latency (s) [RC80, GS_HET]", beLatency, "s")
	return nil
}

// Fig10 — RC80, GS HET: global-scheduling ablation (TetriSched vs
// TetriSched-NG vs Rayon/CS) vs estimate error.
func Fig10(w io.Writer, sc Scale) error {
	c := cluster.RC80(true)
	mix := workload.GSHET(sc.Jobs)
	errs := []float64{-50, -20, 0, 20, 50}
	s, err := errSweep(c, mix, errs, sc, []Builder{
		RayonCS(), tetri(sc),
		variant(sc, func(c *core.Config) { c.Greedy = true }),
	})
	if err != nil {
		return err
	}
	s.printMetric(w, "Fig 10(a) — SLO attainment, all SLO jobs (%) [RC80, GS_HET]", sloAll, "%")
	s.printMetric(w, "Fig 10(b) — SLO attainment, accepted SLO jobs (%) [RC80, GS_HET]", sloAccepted, "%")
	s.printMetric(w, "Fig 10(c) — SLO attainment, jobs w/o reservations (%) [RC80, GS_HET]", sloNoRes, "%")
	s.printMetric(w, "Fig 10(d) — Best-effort mean latency (s) [RC80, GS_HET]", beLatency, "s")
	return nil
}

// Fig11 — RC80, GS HET: TetriSched and TetriSched-NG as a function of the
// plan-ahead window (plan-ahead=0 is TetriSched-NP / alsched).
func Fig11(w io.Writer, sc Scale) error {
	c := cluster.RC80(true)
	mix := workload.GSHET(sc.Jobs)
	s := newSeries("plan-ahead", []string{"Rayon/CS", "TetriSched", "TetriSched-NG"})
	for _, pa := range planAheads {
		x := fmt.Sprintf("%ds", pa)
		scPA := sc
		scPA.PlanAhead = pa
		cs, err := Averaged(c, mix, sc, RayonCS())
		if err != nil {
			return err
		}
		s.add(x, cs)
		full, err := Averaged(c, mix, scPA, variant(scPA, func(c *core.Config) { c.PlanAhead = pa }))
		if err != nil {
			return err
		}
		full.Scheduler = "TetriSched"
		s.add(x, full)
		greedy, err := Averaged(c, mix, scPA, variant(scPA, func(c *core.Config) { c.PlanAhead = pa; c.Greedy = true }))
		if err != nil {
			return err
		}
		greedy.Scheduler = "TetriSched-NG"
		s.add(x, greedy)
	}
	s.printMetric(w, "Fig 11(a) — SLO attainment, all SLO jobs (%) vs plan-ahead [RC80, GS_HET]", sloAll, "%")
	s.printMetric(w, "Fig 11(b) — SLO attainment, accepted SLO jobs (%) vs plan-ahead [RC80, GS_HET]", sloAccepted, "%")
	s.printMetric(w, "Fig 11(c) — SLO attainment, jobs w/o reservations (%) vs plan-ahead [RC80, GS_HET]", sloNoRes, "%")
	s.printMetric(w, "Fig 11(d) — Best-effort mean latency (s) vs plan-ahead [RC80, GS_HET]", beLatency, "s")
	return nil
}

// Fig12 — scalability: solver and cycle wall-clock latency (of this
// repository's own MILP solver) vs plan-ahead, plus the latency CDF at the
// largest window.
func Fig12(w io.Writer, sc Scale) error {
	c := cluster.RC80(true)
	mix := workload.GSHET(sc.Jobs)
	type row struct {
		pa            int64
		solver, cycle map[string]float64
		cdfSolver     map[string]*metrics.CDF
		cdfCycle      map[string]*metrics.CDF
	}
	var rows []row
	for _, pa := range planAheads {
		scPA := sc
		scPA.PlanAhead = pa
		r := row{pa: pa,
			solver: map[string]float64{}, cycle: map[string]float64{},
			cdfSolver: map[string]*metrics.CDF{}, cdfCycle: map[string]*metrics.CDF{}}
		for _, b := range []Builder{
			variant(scPA, func(c *core.Config) { c.PlanAhead = pa }),
			variant(scPA, func(c *core.Config) { c.PlanAhead = pa; c.Greedy = true }),
		} {
			name := "TetriSched"
			if b.Name == "TetriSched-NG" {
				name = "TetriSched-NG"
			}
			sum, err := Averaged(c, mix, scPA, b)
			if err != nil {
				return err
			}
			r.solver[name] = metrics.NewDurationCDF(sum.SolverLatencies).Mean()
			r.cycle[name] = metrics.NewDurationCDF(sum.CycleLatencies).Mean()
			r.cdfSolver[name] = metrics.NewDurationCDF(sum.SolverLatencies)
			r.cdfCycle[name] = metrics.NewDurationCDF(sum.CycleLatencies)
		}
		rows = append(rows, r)
	}
	fmt.Fprintln(w, "\nFig 12(a) — mean solver latency (ms) vs plan-ahead [RC80, GS_HET]")
	fmt.Fprintf(w, "%-12s%16s%16s\n", "plan-ahead", "TetriSched", "TetriSched-NG")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s%14.1fms%14.1fms\n", fmt.Sprintf("%ds", r.pa), r.solver["TetriSched"], r.solver["TetriSched-NG"])
	}
	fmt.Fprintln(w, "\nFig 12(b) — mean cycle latency (ms) vs plan-ahead [RC80, GS_HET]")
	fmt.Fprintf(w, "%-12s%16s%16s\n", "plan-ahead", "TetriSched", "TetriSched-NG")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s%14.1fms%14.1fms\n", fmt.Sprintf("%ds", r.pa), r.cycle["TetriSched"], r.cycle["TetriSched-NG"])
	}
	last := rows[len(rows)-1]
	fmt.Fprintf(w, "\nFig 12(c) — latency CDF at plan-ahead=%ds (ms)\n", last.pa)
	fmt.Fprintf(w, "%-6s%18s%18s%18s%18s\n", "pct", "T cycle", "NG cycle", "T solver", "NG solver")
	for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
		fmt.Fprintf(w, "p%-5.0f%16.1fms%16.1fms%16.1fms%16.1fms\n", p,
			last.cdfCycle["TetriSched"].Percentile(p),
			last.cdfCycle["TetriSched-NG"].Percentile(p),
			last.cdfSolver["TetriSched"].Percentile(p),
			last.cdfSolver["TetriSched-NG"].Percentile(p))
	}
	return nil
}

// All runs every table and figure in order.
func All(w io.Writer, sc Scale) error {
	steps := []struct {
		name string
		fn   func(io.Writer, Scale) error
	}{
		{"Table 1", func(w io.Writer, _ Scale) error { return Table1(w) }},
		{"Table 2", func(w io.Writer, _ Scale) error { return Table2(w) }},
		{"Fig 6", Fig6},
		{"Fig 7", Fig7},
		{"Fig 8", Fig8},
		{"Fig 9", Fig9},
		{"Fig 10", Fig10},
		{"Fig 11", Fig11},
		{"Fig 12", Fig12},
		{"Extension: scale", ExtScale},
		{"Extension: elastic", ExtElastic},
		{"Extension: sharding", ExtShard},
	}
	for _, s := range steps {
		fmt.Fprintf(w, "\n================ %s ================\n", s.name)
		if err := s.fn(w, sc); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
