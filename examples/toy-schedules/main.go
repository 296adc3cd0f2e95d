// The toy cluster of paper Fig 1: 2 racks × 2 servers, rack 1 GPU-enabled,
// and three jobs with fundamentally different placement preferences —
// Availability (anti-affinity), MPI (rack-local gang), and GPU (server
// type). The program compiles all three STRL requests into one MILP and
// prints the chosen space-time schedule, demonstrating that the solver
// "plays Tetris" with all three shapes at once: the Availability job holds
// one server per rack, and the MPI and GPU jobs defer until it finishes so
// that each can run on its fast placement.
package main

import (
	"fmt"
	"sort"

	"tetrisched/internal/cluster"
	"tetrisched/internal/compiler"
	"tetrisched/internal/milp"
	"tetrisched/internal/strl"
)

const horizon = 8

// options builds a MAX over (placement, start) choices: the preferred sets
// with fastDur, plus an anywhere fallback with slowDur, values decaying
// slightly with completion time.
func options(preferred []*strl.NCk, all *strl.NCk) strl.Expr {
	var kids []strl.Expr
	add := func(tmpl *strl.NCk, dur int64, base float64) {
		for s := int64(0); s+dur <= horizon; s++ {
			kids = append(kids, &strl.NCk{
				Set: tmpl.Set, K: tmpl.K, Start: s, Dur: dur,
				Value: base - 0.05*float64(s+dur),
			})
		}
	}
	for _, p := range preferred {
		add(p, p.Dur, p.Value)
	}
	add(all, all.Dur, all.Value)
	return &strl.Max{Kids: kids}
}

func main() {
	// M1, M2 on rack1 (GPU); M3, M4 on rack2.
	c := cluster.NewBuilder().
		AddRack("rack1", 2, map[string]string{"gpu": "true"}).
		AddRack("rack2", 2, nil).
		Build()
	rack1, rack2, gpus, all := c.Rack("rack1"), c.Rack("rack2"), c.WithAttr("gpu", "true"), c.All()

	// Availability: one server per rack for 3 time units (MIN = anti-affinity).
	availability := &strl.Min{Kids: []strl.Expr{
		&strl.NCk{Set: rack1, K: 1, Start: 0, Dur: 3, Value: 6},
		&strl.NCk{Set: rack2, K: 1, Start: 0, Dur: 3, Value: 6},
	}}
	// MPI: both servers on one rack → 2 units; spread anywhere → 3 units.
	mpi := options(
		[]*strl.NCk{
			{Set: rack1, K: 2, Dur: 2, Value: 4},
			{Set: rack2, K: 2, Dur: 2, Value: 4},
		},
		&strl.NCk{Set: all, K: 2, Dur: 3, Value: 3},
	)
	// GPU: both servers GPU-enabled → 2 units; anywhere → 3 units.
	gpu := options(
		[]*strl.NCk{{Set: gpus, K: 2, Dur: 2, Value: 4}},
		&strl.NCk{Set: all, K: 2, Dur: 3, Value: 3},
	)

	jobs := []strl.Expr{availability, mpi, gpu}
	names := []string{"Availability", "MPI", "GPU"}
	comp, err := compiler.Compile(jobs, compiler.Options{Universe: c.N(), Horizon: horizon})
	if err != nil {
		panic(err)
	}
	sol, err := milp.Solve(comp.Model, milp.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("MILP: %d vars, %d constraints; objective = %.2f\n\n",
		comp.Model.NumVars(), comp.Model.NumConstraints(), sol.Objective)

	grants := comp.Decode(sol)
	sort.Slice(grants, func(a, b int) bool { return grants[a].Job < grants[b].Job })
	fmt.Println("chosen space-time schedule (cf. the candidate schedules of Fig 1):")
	for _, g := range grants {
		var where []string
		for _, gc := range g.Counts {
			cnt := gc.N
			comp.Part.Groups[gc.Group].ForEach(func(n int) bool {
				if cnt > 0 {
					where = append(where, c.Node(cluster.NodeID(n)).Name)
					cnt--
				}
				return cnt > 0
			})
		}
		sort.Strings(where)
		fmt.Printf("  %-13s t=[%d,%d)  from %v\n", names[g.Job], g.Start, g.Start+g.Dur, where)
	}
}
