// Command experiments regenerates the tables and figures of the TetriSched
// paper's evaluation (§6–7) using this repository's implementation.
//
// Usage:
//
//	experiments -all                 # every table and figure (slow)
//	experiments -fig 6               # just Fig 6
//	experiments -table 1             # just Table 1
//	experiments -fig 9 -jobs 120 -seeds 2
//	experiments -quick -all          # reduced scale
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tetrisched/internal/experiments"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every table and figure")
		fig    = flag.Int("fig", 0, "figure number to regenerate (6..12)")
		table  = flag.Int("table", 0, "table number to regenerate (1..2)")
		quick  = flag.Bool("quick", false, "reduced scale (fewer jobs/seeds)")
		jobs   = flag.Int("jobs", 0, "override jobs per run")
		seeds  = flag.Int("seeds", 0, "override seeds per point")
		solver = flag.Duration("solver-limit", 0, "override per-solve MILP work budget, in seconds of a reference machine's LP work")
		ext    = flag.String("ext", "", "extension experiments: scale | elastic | shard")
		tsv    = flag.String("tsv", "", "also write each sub-figure as TSV into this directory")
	)
	flag.Parse()

	sc := experiments.Full()
	if *quick {
		sc = experiments.Quick()
	}
	if *jobs > 0 {
		sc.Jobs = *jobs
	}
	if *seeds > 0 {
		sc.Seeds = *seeds
	}
	if *solver > 0 {
		sc.SolverTimeLimit = *solver
	}
	if *tsv != "" {
		if err := os.MkdirAll(*tsv, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		experiments.SetTSVDir(*tsv)
	}

	start := time.Now()
	var err error
	switch {
	case *all:
		err = experiments.All(os.Stdout, sc)
	case *table == 1:
		err = experiments.Table1(os.Stdout)
	case *table == 2:
		err = experiments.Table2(os.Stdout)
	case *fig == 6:
		err = experiments.Fig6(os.Stdout, sc)
	case *fig == 7:
		err = experiments.Fig7(os.Stdout, sc)
	case *fig == 8:
		err = experiments.Fig8(os.Stdout, sc)
	case *fig == 9:
		err = experiments.Fig9(os.Stdout, sc)
	case *fig == 10:
		err = experiments.Fig10(os.Stdout, sc)
	case *fig == 11:
		err = experiments.Fig11(os.Stdout, sc)
	case *fig == 12:
		err = experiments.Fig12(os.Stdout, sc)
	case *ext == "scale":
		err = experiments.ExtScale(os.Stdout, sc)
	case *ext == "elastic":
		err = experiments.ExtElastic(os.Stdout, sc)
	case *ext == "shard":
		err = experiments.ExtShard(os.Stdout, sc)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "\n(total wall time %v)\n", time.Since(start).Round(time.Second))
}
