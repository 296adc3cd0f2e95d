package milp

import (
	"math"
	"slices"
	"testing"
)

// fuzzInput reads a fuzzer's bytes as small non-negative integers, zeros once
// they run out.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	v := int((*in)[0])
	*in = (*in)[1:]
	return v % n
}

// fuzzModel decodes one small packing MILP of the scheduler's shape: up to four
// jobs choosing at most one of up to three options, optionally with the job
// indicator the compiler adds, options drawing on per-slice supply rows, and
// now and then a demand row that may be unmeetable, so infeasible parts occur.
func fuzzModel(in *fuzzInput) *Model {
	m := NewModel(Maximize)
	horizon := 1 + in.next(3)
	supply := make([][]Term, horizon)
	var all []Term
	for j, jobs := 0, 1+in.next(4); j < jobs; j++ {
		var choose []Term
		for o, opts := 0, 1+in.next(3); o < opts; o++ {
			x := m.AddBinary("", float64(1+in.next(20)))
			choose, all = append(choose, Term{x, 1}), append(all, Term{x, 1})
			k := float64(1 + in.next(4))
			for s, dur := in.next(horizon), 1+in.next(2); s < horizon && dur > 0; s, dur = s+1, dur-1 {
				supply[s] = append(supply[s], Term{x, k})
			}
		}
		if in.next(2) == 0 {
			m.AddConstraint("", choose, LE, 1)
		} else {
			m.AddConstraint("", append(choose, Term{m.AddBinary("", 0), -1}), LE, 0)
		}
	}
	for _, terms := range supply {
		if len(terms) > 0 {
			m.AddConstraint("", terms, LE, float64(in.next(8)))
		}
	}
	if in.next(4) == 0 {
		m.AddConstraint("", all, GE, float64(1+in.next(2)))
	}
	return m
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzSolveEachMatchesSolve: parts solved together on one WorkspaceList, three
// rounds running, each part writing into memory it lent as Part.Out — last
// round's Solution, one whose Values are too small, or none — give exactly what
// the package-level Solve gives on fresh memory: the same status, and the same
// objective, bound and values bit for bit, with and without presolve. A
// Solution from an earlier round that was not lent again is not touched by a
// later one, and on models of at most 12 binaries the optimum is the
// brute-force one.
func FuzzSolveEachMatchesSolve(f *testing.F) {
	f.Add([]byte{2, 1, 3, 2, 9, 1, 0, 0, 14, 2, 1, 1, 1, 5, 2, 3, 0, 0, 7, 1, 0, 1, 3, 0, 2, 6})
	f.Add([]byte{5, 0, 2, 0, 3, 1, 4, 17, 3, 2, 1, 0, 0, 1, 3, 0, 11, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		models := make([]*Model, 1+in.next(6))
		for i := range models {
			models[i] = fuzzModel(&in)
		}
		var list WorkspaceList
		for _, presolve := range []bool{true, false} {
			opts := Options{DisablePresolve: !presolve}
			want := make([]*Solution, len(models))
			for i, m := range models {
				sol, err := Solve(m, opts)
				if err != nil {
					t.Fatalf("model %d: %v", i, err)
				}
				want[i] = sol
				if len(m.Vars) > 12 {
					continue
				}
				best := bruteForce(m) // NaN: infeasible
				if math.IsNaN(best) && sol.Status != StatusInfeasible ||
					!math.IsNaN(best) && (sol.Status != StatusOptimal || math.Abs(sol.Objective-best) > 1e-6) {
					t.Fatalf("presolve %v model %d: %v at %v, brute force finds %v\n%s", presolve, i, sol.Status, sol.Objective, best, m)
				}
			}
			prev := make([]*Solution, len(models))
			var kept []Solution
			for round := 0; round < 3; round++ {
				parts := make([]Part, len(models))
				for i, m := range models {
					parts[i].Model = m
					switch in.next(3) {
					case 0:
						parts[i].Out = prev[i]
					case 1:
						parts[i].Out = &Solution{Values: make([]float64, len(m.Vars)/2)}
					}
				}
				_, sols, err := list.SolveEach(parts, opts, new(Solution))
				if err != nil {
					t.Fatal(err)
				}
				for i, sol := range sols {
					w := want[i]
					if sol == nil || sol.Status != w.Status || !sameBits(sol.Objective, w.Objective) ||
						!sameBits(sol.Bound, w.Bound) || !slices.EqualFunc(sol.Values, w.Values, sameBits) || (sol.Values == nil) != (w.Values == nil) {
						t.Fatalf("presolve %v round %d part %d: %+v, a solve on fresh memory gives %+v", presolve, round, i, sol, w)
					}
					if parts[i].Out != nil && sol != parts[i].Out {
						t.Fatalf("presolve %v round %d part %d: the Solution is not the one lent", presolve, round, i)
					}
				}
				for i, k := range kept {
					if parts[i].Out != prev[i] && (k.Status != prev[i].Status || !slices.Equal(k.Values, prev[i].Values)) {
						t.Fatalf("presolve %v round %d part %d: last round's Solution changed though it was not lent", presolve, round, i)
					}
				}
				kept = kept[:0]
				for _, sol := range sols {
					kept = append(kept, Solution{Status: sol.Status, Values: slices.Clone(sol.Values)})
				}
				copy(prev, sols)
			}
		}
	})
}
