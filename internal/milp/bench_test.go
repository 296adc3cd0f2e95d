package milp

import "testing"

// The two layers of the solve that the root benchmark suite cannot reach
// through the public API in isolation: the tree search proper and one round
// of cut separation, both on the resident block (residentModel) with two
// arrivals — 1 229 nodes at the scheduler's gap. `make bench` runs them with
// the root suite; read B/op and allocs/op, which repeat exactly.

// BenchmarkTreeSearch is a whole solve of the block on a warm workspace with
// one worker: root, one cut round, then the tree, which is
// nearly all of it. nodes/op makes a changed tree visible next to a changed
// time: it read 128 while a search without a heuristic also ran an LP dive at
// every 64th node, and reads 1 229 without it.
func BenchmarkTreeSearch(b *testing.B) {
	m := residentModel(2)
	opts := Options{Gap: 0.1}
	var ws Workspace
	for i := 0; i < 2; i++ { // grow the slabs to fit, outside the measurement
		if _, err := ws.Solve(m, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		sol, err := ws.Solve(m, opts)
		if err != nil || sol.Status != StatusOptimal {
			b.Fatalf("solve: %v %+v", err, sol)
		}
		nodes += sol.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// BenchmarkSeparateCuts is one separation round — both families, the sort,
// the cap, the rows of the cuts kept — at the root point of the block, which
// is where the solver runs it.
func BenchmarkSeparateCuts(b *testing.B) {
	m := residentModel(2)
	p := newLP(m)
	st, x, err := solveLP(p, p.lb, p.ub, 0)
	if err != nil || st != lpOptimal {
		b.Fatalf("root LP: %v %v", st, err)
	}
	var ws Workspace
	cuts := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cuts += len(ws.separateCuts(m, x))
		ws.rewind() // as the end of a solve does; the first one sizes the slabs
	}
	if cuts == 0 {
		b.Fatal("the root point violates no cut")
	}
	b.ReportMetric(float64(cuts)/float64(b.N), "cuts/op")
}
