// Command benchmark is the repository's scoreboard: five named workloads that
// follow a job's whole trip through the scheduler, a handful of end-to-end
// metrics with regression bounds (BENCHMARK.json), and per-layer metrics from
// a separate traced run. Every layer is measured from outside, by wrapping or
// replaying calls into its public functions; see README.md.
//
//	go run ./benchmark                          all workloads, untraced then traced
//	go run ./benchmark -workload resident_churn1 -seed 3
//	go run ./benchmark -workload trace_gshet -trace 1   one traced run, in process
//	go run ./benchmark -aa                      two sets, compared against the bounds
//	go run ./benchmark -quick                   the tests' scale, a second or two each
//
// With -workload and -trace the last line of standard output is the result
// object BENCHMARK.json's driver reads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// result is the last line a single run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "how long one run measures")
	traceFlag := flag.Int("trace", -1, "0: one untraced run in this process, 1: one traced run; default: both, one subprocess each")
	quick := flag.Bool("quick", false, "tiny inputs, for smoke tests")
	aa := flag.Bool("aa", false, "run two untraced sets back to back and compare them against the bounds")
	flag.Parse()
	if *quick {
		// One round per run unless the caller asked for a duration.
		given := false
		flag.Visit(func(f *flag.Flag) { given = given || f.Name == "seconds" })
		if !given {
			*seconds = 0
		}
	}

	if *name != "" && findWorkload(*name) == nil {
		fatalf("unknown workload %q", *name)
	}
	if *traceFlag >= 0 {
		if *name == "" {
			fatalf("-trace needs -workload")
		}
		sc := fullScale
		if *quick {
			sc = quickScale
		}
		if os.Getenv("GOMAXPROCS") == "" {
			// The workloads were sized on two cores (frontdoor_open has two
			// connections for that reason), and before Go 1.25 the runtime's
			// default ignores a container's CPU quota. Say what is measured.
			runtime.GOMAXPROCS(2)
		}
		r := execute(findWorkload(*name), *seed, *seconds, *traceFlag == 1, sc)
		r.print(os.Stdout)
		return
	}
	var set []*workloadDef
	if *name != "" {
		set = []*workloadDef{findWorkload(*name)}
	} else {
		set = workloads
	}
	args := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
	if *quick {
		args = append(args, "-quick")
	}
	ok := false
	if *aa {
		ok = runAA(set, args)
	} else {
		ok = runSet(set, args)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// print writes the run for a reader and then, as the last line, the result
// object: the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func (r *run) print(w *os.File) {
	decls := endToEnd
	if r.traced {
		decls = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.ops, Failed: r.failed, Metrics: evaluate(decls, r)}
	if res.Attempted < 1 {
		res.Attempted, res.Correct = 1, false
	}
	fmt.Fprintf(w, "%s seed %d trace %v: %d repetitions, %.2f s measured, %d steady cycles, %d ops, %d failed\n",
		r.w.name, r.seed, r.traced, len(r.reps), r.measured.Seconds(), r.steady().n(), r.ops, r.failed)
	for _, d := range decls {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	// Facts the full set and -aa want from an untraced run: its speed, which
	// is not bounded, and the busy time to set against the traced run's.
	if !r.traced {
		for _, d := range timing {
			fmt.Fprintf(w, "info %s %.6f\n", d.name, d.value(r))
		}
	}
	fmt.Fprintf(w, "info busy_ms_per_cycle %.6f\n", ratio(ms(r.busy), float64(r.coreMS.n())))
	if r.w.repeatable {
		fmt.Fprintf(w, "hash %016x\n", r.scheduleHash())
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	if r.w.sloFloor > 0 && r.sloPct() < r.w.sloFloor {
		fmt.Fprintf(w, "problem SLO attainment %.2f%% is below the workload's floor of %g%%\n", r.sloPct(), r.w.sloFloor)
	}
	line, err := json.Marshal(res)
	if err != nil { // a NaN or Inf value: a harness bug, and not a result
		fatalf("result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// child is what the orchestrating modes keep of one subprocess run.
type child struct {
	res  result
	info map[string]float64
	hash string // schedule hash, "" for a workload that is not repeatable
}

// spawn runs one workload in a subprocess of this binary, so that heap and GC
// state cannot leak from one run into the next, and parses what it printed.
func spawn(w *workloadDef, traced bool, args []string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, append([]string{"-workload", w.name, "-trace", t}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	c := &child{info: make(map[string]float64)}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		switch {
		case len(f) == 3 && f[0] == "info":
			c.info[f[1]], _ = strconv.ParseFloat(f[2], 64)
		case len(f) == 2 && f[0] == "hash":
			c.hash = f[1]
		case len(f) > 1 && f[0] == "problem":
			fmt.Printf("  %s\n", last)
		}
	}
	if err := json.Unmarshal([]byte(last), &c.res); err != nil {
		return nil, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	return c, nil
}

func (c *child) clean() bool { return c.res.Correct && c.res.Failed == 0 }

func printMetrics(decls []decl, c *child) {
	for _, d := range decls {
		m := c.res.Metrics[d.name]
		fmt.Printf("  %-38s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
}

// runSet runs every workload untraced and then traced, prints every metric by
// name, and reports whether all outputs were correct and the hashes agreed.
func runSet(set []*workloadDef, args []string) bool {
	ok := true
	for _, w := range set {
		fmt.Printf("== %s — %s\n", w.name, w.why)
		plain, err := spawn(w, false, args)
		if err != nil {
			fmt.Printf("  FAILED: %v\n", err)
			ok = false
			continue
		}
		fmt.Printf(" end to end (tracing off; %d ops, %d failed, correct=%v)\n", plain.res.Attempted, plain.res.Failed, plain.res.Correct)
		printMetrics(endToEnd, plain)
		for _, d := range timing {
			fmt.Printf("  %-38s %14.4f %s (not bounded)\n", d.name, plain.info[d.name], d.unit)
		}
		traced, err := spawn(w, true, args)
		if err != nil {
			fmt.Printf("  FAILED: %v\n", err)
			ok = false
			continue
		}
		fmt.Printf(" per layer (traced run; %d ops, %d failed, correct=%v)\n", traced.res.Attempted, traced.res.Failed, traced.res.Correct)
		printMetrics(perLayer, traced)
		u, t := plain.info["busy_ms_per_cycle"], traced.info["busy_ms_per_cycle"]
		fmt.Printf(" busy time per cycle: %.4f ms untraced, %.4f ms traced (%+.1f%%)\n", u, t, 100*(ratio(t, u)-1))
		if w.repeatable {
			same := plain.hash != "" && plain.hash == traced.hash
			fmt.Printf(" schedule hash untraced = traced: %v\n", same)
			ok = ok && same
		}
		ok = ok && plain.clean() && traced.clean()
	}
	if !ok {
		fmt.Println("FAILED: see above")
	}
	return ok
}

// spec is the part of BENCHMARK.json the A/A check needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs two untraced sets back to back on the same code and prints, per
// workload and end-to-end metric, both values, how much worse the second is
// than the first, and the bound; the timing metrics follow without a bound,
// for the reader. It fails when any pair is outside its bound in either
// direction, or a repeatable workload's schedules differ.
func runAA(set []*workloadDef, args []string) bool {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("-aa reads the bounds from BENCHMARK.json in the working directory: %v", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	var a, b []*child
	for pass, dst := range []*[]*child{&a, &b} {
		for _, w := range set {
			c, err := spawn(w, false, args)
			if err != nil {
				fatalf("set %c: %v", 'A'+pass, err)
			}
			*dst = append(*dst, c)
		}
	}
	ok := true
	fmt.Printf("| workload | metric | A | B | worse by | bound | |\n|---|---|---|---|---|---|---|\n")
	for i, w := range set {
		for _, m := range sp.EndToEnd {
			va, vb := a[i].res.Metrics[m.Name].Value, b[i].res.Metrics[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > m.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f%% | %.0f%% | %s |\n", w.name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		for _, d := range timing {
			va, vb := a[i].info[d.name], b[i].info[d.name]
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f%% | – | difference |\n", w.name, d.name, va, vb, 100*ratio(vb-va, va))
		}
		if w.repeatable && (a[i].hash == "" || a[i].hash != b[i].hash) {
			fmt.Printf("| %s | schedule hash | | | differs | | OUTSIDE |\n", w.name)
			ok = false
		}
		ok = ok && a[i].clean() && b[i].clean()
	}
	if !ok {
		fmt.Println("FAILED: an A/A pair is outside its bound, a schedule differs, or a run was not clean")
	}
	return ok
}
