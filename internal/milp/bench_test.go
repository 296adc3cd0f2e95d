package milp

import "testing"

// The layer of the solve that the root benchmark suite cannot reach through
// the public API in isolation: the tree search proper, on the resident block
// (residentModel) with two arrivals — 1 129 nodes at the scheduler's gap.
// `make bench` runs it with the root suite; read B/op and allocs/op, which
// repeat exactly.

// BenchmarkTreeSearch is a whole solve of the block on a warm workspace: root,
// then the tree, which is nearly all of it. nodes/op makes a changed tree
// visible next to a changed time.
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
