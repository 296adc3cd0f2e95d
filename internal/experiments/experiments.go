// Package experiments regenerates every table and figure of the TetriSched
// paper's evaluation (§7). Each FigN function runs the corresponding
// workload/cluster/parameter sweep against the relevant schedulers and
// prints the same rows/series the paper plots. Scale controls job counts and
// seeds so benchmarks can run reduced versions of the same code paths.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tetrisched/internal/capsched"
	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/rayon"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// Scale controls experiment size.
type Scale struct {
	// Jobs is the number of jobs per run.
	Jobs int
	// Seeds is how many seeds to average over.
	Seeds int
	// PlanAhead is the default plan-ahead window in seconds.
	PlanAhead int64
	// CyclePeriod in seconds (paper: 4).
	CyclePeriod int64
	// SolverTimeLimit per MILP solve.
	SolverTimeLimit time.Duration
}

// Full is the default experiment scale.
func Full() Scale {
	return Scale{Jobs: 150, Seeds: 2, PlanAhead: 96, CyclePeriod: 4, SolverTimeLimit: 300 * time.Millisecond}
}

// Quick is a reduced scale for smoke runs.
func Quick() Scale {
	return Scale{Jobs: 60, Seeds: 1, PlanAhead: 96, CyclePeriod: 4, SolverTimeLimit: 200 * time.Millisecond}
}

// Bench is the smallest scale, used by the repository's per-figure
// benchmarks: every code path of the full experiment, minimal wall time.
func Bench() Scale {
	return Scale{Jobs: 15, Seeds: 1, PlanAhead: 48, CyclePeriod: 4, SolverTimeLimit: 50 * time.Millisecond}
}

// Builder constructs a scheduler bound to a cluster and reservation plan.
type Builder struct {
	Name  string
	Build func(c *cluster.Cluster, plan *rayon.Plan) sim.Scheduler
}

// TetriSched returns a builder for a TetriSched variant.
func TetriSched(cfg core.Config) Builder {
	return Builder{
		Name: cfg.Name(),
		Build: func(c *cluster.Cluster, plan *rayon.Plan) sim.Scheduler {
			return core.New(c, cfg)
		},
	}
}

// RayonCS returns a builder for the baseline stack.
func RayonCS() Builder {
	return Builder{
		Name: "Rayon/CS",
		Build: func(c *cluster.Cluster, plan *rayon.Plan) sim.Scheduler {
			return capsched.New(c, plan)
		},
	}
}

// RunOne generates the mix with the seed, runs it under the scheduler, and
// summarizes.
func RunOne(c *cluster.Cluster, mix workload.Mix, seed int64, b Builder, cyclePeriod int64) (metrics.Summary, error) {
	jobs, err := workload.Generate(mix, c, seed)
	if err != nil {
		return metrics.Summary{}, err
	}
	plan := rayon.NewPlan(c.N(), cyclePeriod)
	sched := b.Build(c, plan)
	res, err := sim.Run(sim.Config{
		Cluster:     c,
		Jobs:        jobs,
		Scheduler:   sched,
		Plan:        plan,
		CyclePeriod: cyclePeriod,
	})
	if err != nil {
		return metrics.Summary{}, fmt.Errorf("%s seed %d: %w", b.Name, seed, err)
	}
	if res.Stalled {
		return metrics.Summary{}, fmt.Errorf("%s seed %d: simulation stalled", b.Name, seed)
	}
	return metrics.Summarize(b.Name, res, c.N()), nil
}

// Averaged runs the mix across sc.Seeds seeds and averages the headline
// metrics.
func Averaged(c *cluster.Cluster, mix workload.Mix, sc Scale, b Builder) (metrics.Summary, error) {
	var acc metrics.Summary
	acc.Scheduler = b.Name
	for s := 0; s < sc.Seeds; s++ {
		sum, err := RunOne(c, mix, int64(1000+s), b, sc.CyclePeriod)
		if err != nil {
			return acc, err
		}
		acc.SLOAll += sum.SLOAll
		acc.SLOAccepted += sum.SLOAccepted
		acc.SLONoRes += sum.SLONoRes
		acc.MeanBELatency += sum.MeanBELatency
		acc.Utilization += sum.Utilization
		acc.NumSLO += sum.NumSLO
		acc.NumAccepted += sum.NumAccepted
		acc.NumNoRes += sum.NumNoRes
		acc.NumBE += sum.NumBE
		acc.Incomplete += sum.Incomplete
		acc.CycleLatencies = append(acc.CycleLatencies, sum.CycleLatencies...)
		acc.SolverLatencies = append(acc.SolverLatencies, sum.SolverLatencies...)
	}
	n := float64(sc.Seeds)
	acc.SLOAll /= n
	acc.SLOAccepted /= n
	acc.SLONoRes /= n
	acc.MeanBELatency /= n
	acc.Utilization /= n
	return acc, nil
}

// series is one sweep: metric values per x-point per scheduler.
type series struct {
	xlabel  string
	xs      []string
	columns []string
	cells   map[string]map[string]metrics.Summary // x -> scheduler -> summary
}

func newSeries(xlabel string, columns []string) *series {
	return &series{xlabel: xlabel, columns: columns, cells: map[string]map[string]metrics.Summary{}}
}

func (s *series) add(x string, sum metrics.Summary) {
	if s.cells[x] == nil {
		s.cells[x] = map[string]metrics.Summary{}
		s.xs = append(s.xs, x)
	}
	s.cells[x][sum.Scheduler] = sum
}

// tsvDir, when set via SetTSVDir, receives one tab-separated file per
// sub-figure alongside the printed tables — plotting-friendly output.
var tsvDir string

// SetTSVDir directs every subsequently printed sub-figure to also be written
// as <dir>/<fig-id>.tsv. Pass "" to disable.
func SetTSVDir(dir string) { tsvDir = dir }

// tsvName slugifies a sub-figure title ("Fig 9(a) — …" → "fig9a.tsv").
func tsvName(title string) string {
	head, _, _ := strings.Cut(title, "—")
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(head)) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		b.WriteString("figure")
	}
	return b.String() + ".tsv"
}

// writeTSV dumps the series for one metric as TSV.
func (s *series) writeTSV(title string, metric func(metrics.Summary) float64) {
	if tsvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(tsvDir, tsvName(title)))
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s\n%s", title, s.xlabel)
	for _, c := range s.columns {
		fmt.Fprintf(f, "\t%s", c)
	}
	fmt.Fprintln(f)
	for _, x := range s.xs {
		fmt.Fprint(f, x)
		for _, c := range s.columns {
			if sum, ok := s.cells[x][c]; ok {
				fmt.Fprintf(f, "\t%.3f", metric(sum))
			} else {
				fmt.Fprint(f, "\t")
			}
		}
		fmt.Fprintln(f)
	}
}

// printMetric renders one sub-figure table.
func (s *series) printMetric(w io.Writer, title string, metric func(metrics.Summary) float64, unit string) {
	s.writeTSV(title, metric)
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-12s", s.xlabel)
	for _, c := range s.columns {
		fmt.Fprintf(w, "%16s", c)
	}
	fmt.Fprintln(w)
	for _, x := range s.xs {
		fmt.Fprintf(w, "%-12s", x)
		for _, c := range s.columns {
			if sum, ok := s.cells[x][c]; ok {
				fmt.Fprintf(w, "%14.1f%s", metric(sum), unit)
			} else {
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

func sloAll(s metrics.Summary) float64      { return s.SLOAll }
func sloAccepted(s metrics.Summary) float64 { return s.SLOAccepted }
func sloNoRes(s metrics.Summary) float64    { return s.SLONoRes }
func beLatency(s metrics.Summary) float64   { return s.MeanBELatency }

// errSweep runs an estimate-error sweep for one workload/cluster and a set
// of schedulers.
func errSweep(c *cluster.Cluster, mix workload.Mix, errs []float64, sc Scale, builders []Builder) (*series, error) {
	cols := make([]string, len(builders))
	for i, b := range builders {
		cols[i] = b.Name
	}
	s := newSeries("err(%)", cols)
	for _, e := range errs {
		m := mix
		m.EstErr = e / 100
		for _, b := range builders {
			sum, err := Averaged(c, m, sc, b)
			if err != nil {
				return nil, err
			}
			s.add(fmt.Sprintf("%+.0f", e), sum)
		}
	}
	return s, nil
}
