// Command strlc compiles a textual STRL expression against a described
// cluster, prints the generated MILP, solves it, and shows the resulting
// space-time allocation. It is the quickest way to explore the language of
// §4 interactively.
//
// Usage:
//
//	echo 'max(nCk({gpu}, k=2, start=0, dur=2, v=4),
//	          nCk({*},   k=2, start=0, dur=3, v=3))' | strlc -nodes 4 -gpus 2
//
//	strlc -nodes 3 -horizon 4 -e 'sum(
//	    nCk({*}, k=2, start=0, dur=1, v=1),
//	    max(nCk({*}, k=1, start=0, dur=2, v=1), nCk({*}, k=1, start=2, dur=2, v=1)))'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 4, "cluster size")
		gpus     = flag.Int("gpus", 0, "number of GPU-labeled nodes (lowest IDs)")
		racks    = flag.Int("racks", 1, "number of racks (nodes split evenly)")
		horizon  = flag.Int64("horizon", 0, "plan-ahead window in slices (default: expression horizon)")
		expr     = flag.String("e", "", "expression (default: read stdin)")
		busyStr  = flag.String("busy", "", "comma-separated node:releaseSlice pairs, e.g. 0:2,1:2")
		showMILP = flag.Bool("milp", true, "print the generated MILP")
	)
	flag.Parse()

	src := *expr
	if src == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal("reading stdin: %v", err)
		}
		src = string(data)
	}

	b := cluster.NewBuilder()
	perRack := (*nodes + *racks - 1) / *racks
	id := 0
	for r := 0; r < *racks && id < *nodes; r++ {
		for i := 0; i < perRack && id < *nodes; i++ {
			attrs := map[string]string{}
			if id < *gpus {
				attrs["gpu"] = "true"
			}
			b.AddNode(fmt.Sprintf("r%d/n%d", r, i), fmt.Sprintf("r%d", r), attrs)
			id++
		}
	}
	c := b.Build()

	e, err := strl.Parse(src, strl.ClusterResolver{C: c})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println("parsed STRL:")
	fmt.Println(" ", e)

	h := *horizon
	if h <= 0 {
		h = strl.Horizon(e)
	}
	var release []int64
	if *busyStr != "" {
		release = make([]int64, c.N())
		for _, pair := range strings.Split(*busyStr, ",") {
			var n int
			var rel int64
			if _, err := fmt.Sscanf(strings.TrimSpace(pair), "%d:%d", &n, &rel); err != nil {
				fatal("bad -busy entry %q", pair)
			}
			if n < 0 || n >= c.N() {
				fatal("-busy node %d out of range", n)
			}
			release[n] = rel
		}
	}

	comp, err := compiler.Compile([]strl.Expr{e}, compiler.Options{
		Universe: c.N(), Horizon: h, ReleaseAt: release,
	})
	if err != nil {
		fatal("compile: %v", err)
	}
	fmt.Printf("\npartition groups (%d):\n", len(comp.Part.Groups))
	for i, g := range comp.Part.Groups {
		fmt.Printf("  g%d = %s\n", i, nodeNames(c, g))
	}
	if *showMILP {
		fmt.Printf("\nMILP (%d vars, %d constraints):\n%s\n", comp.Model.NumVars(), comp.Model.NumConstraints(), comp.Model)
	}

	sol, err := milp.Solve(comp.Model, milp.Options{})
	if err != nil {
		fatal("solve: %v", err)
	}
	fmt.Printf("solution: status=%v objective=%g (%d branch-and-bound nodes)\n", sol.Status, sol.Objective, sol.Nodes)
	if sol.Values == nil {
		return
	}
	grants := comp.Decode(sol)
	if len(grants) == 0 {
		fmt.Println("no leaves granted")
		return
	}
	fmt.Println("grants:")
	for _, g := range grants {
		fmt.Printf("  start=%d dur=%d total=%d  leaf=%s\n", g.Start, g.Dur, g.Total, g.Leaf)
		for _, gc := range g.Counts {
			fmt.Printf("      %d node(s) from group g%d %s\n", gc.N, gc.Group, nodeNames(c, comp.Part.Groups[gc.Group]))
		}
	}
}

func nodeNames(c *cluster.Cluster, s *bitset.Set) string {
	var names []string
	s.ForEach(func(i int) bool {
		names = append(names, c.Node(cluster.NodeID(i)).Name)
		return len(names) < 12
	})
	if s.Count() > 12 {
		names = append(names, fmt.Sprintf("… %d total", s.Count()))
	}
	return "{" + strings.Join(names, ", ") + "}"
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "strlc: "+format+"\n", args...)
	os.Exit(1)
}
