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
	m := &Model{}
	horizon := 1 + in.next(3)
	supply := make([][]Term, horizon)
	var all []Term
	for j, jobs := 0, 1+in.next(4); j < jobs; j++ {
		var choose []Term
		for o, opts := 0, 1+in.next(3); o < opts; o++ {
			x := m.AddVar(Binary, 0, 1, float64(1+in.next(20)))
			choose, all = append(choose, Term{x, 1}), append(all, Term{x, 1})
			k := float64(1 + in.next(4))
			for s, dur := in.next(horizon), 1+in.next(2); s < horizon && dur > 0; s, dur = s+1, dur-1 {
				supply[s] = append(supply[s], Term{x, k})
			}
		}
		if in.next(2) == 0 {
			m.AddConstraint(choose, LE, 1)
		} else {
			m.AddConstraint(append(choose, Term{m.AddVar(Binary, 0, 1, 0), -1}), LE, 0)
		}
	}
	for _, terms := range supply {
		if len(terms) > 0 {
			m.AddConstraint(terms, LE, float64(in.next(8)))
		}
	}
	if in.next(4) == 0 {
		addRow(m, all, 1, float64(1+in.next(2))) // Σ all ≥ 1 or 2
	}
	return m
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameAnswer reports whether two solves returned the same answer: status,
// objective, bound and values bit for bit, nodes and LP work.
func sameAnswer(a, b *Solution) bool {
	return a.Status == b.Status && sameBits(a.Objective, b.Objective) && sameBits(a.Bound, b.Bound) &&
		slices.EqualFunc(a.Values, b.Values, sameBits) && (a.Values == nil) == (b.Values == nil) &&
		a.Nodes == b.Nodes && a.LP == b.LP
}

// FuzzSolveEachMatchesSolve: parts solved together on one WorkspaceList, three
// rounds running, each part writing into memory it lent as Part.Out — last
// round's Solution, one whose Values are too small, or none — give exactly what
// the package-level Solve gives on fresh memory: the same status, and the same
// objective, bound and values bit for bit, with and without presolve. A
// Solution from an earlier round that was not lent again is not touched by a
// later one, and on models of at most 12 binaries the optimum is the
// brute-force one. Each model also draws a 0/1 seed: where the seedless
// solution says the seed cannot change it (Solution.SeedCannotChange), a
// solve from the seed, alone or as a part's Seed, returns that solution, nodes
// and LP work included.
func FuzzSolveEachMatchesSolve(f *testing.F) {
	f.Add([]byte{2, 1, 3, 2, 9, 1, 0, 0, 14, 2, 1, 1, 1, 5, 2, 3, 0, 0, 7, 1, 0, 1, 3, 0, 2, 6})
	f.Add([]byte{5, 0, 2, 0, 3, 1, 4, 17, 3, 2, 1, 0, 0, 1, 3, 0, 11, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		models := make([]*Model, 1+in.next(6))
		seeds := make([][]float64, len(models))
		for i := range models {
			models[i] = fuzzModel(&in)
		}
		for i, m := range models {
			seeds[i] = make([]float64, len(m.Vars))
			for v := range seeds[i] {
				seeds[i][v] = float64(in.next(2))
			}
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
				if sol.SeedCannotChange(m, seeds[i]) {
					o := opts
					o.InitialSolution = seeds[i]
					if seeded, err := Solve(m, o); err != nil || !sameAnswer(seeded, sol) {
						t.Fatalf("presolve %v model %d: solved from %v, which the seedless solution says cannot change it: %+v, without: %+v\n%s",
							presolve, i, seeds[i], seeded, sol, m)
					}
				}
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
					// One byte picks the Out and whether to lend the seed.
					pick := in.next(6)
					if pick >= 3 && want[i].SeedCannotChange(m, seeds[i]) {
						parts[i].Seed = seeds[i]
					}
					switch pick % 3 {
					case 0:
						parts[i].Out = prev[i]
					case 1:
						parts[i].Out = &Solution{Values: make([]float64, len(m.Vars)/2)}
					}
				}
				_, sols, err := list.SolveEach(parts, opts, new(Solution), nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, sol := range sols {
					w := want[i]
					if sol == nil || !sameAnswer(sol, w) {
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

// presolveModel decodes one small integer model for presolve: up to seven
// columns — binaries, small integers, and columns the model fixes (lb = ub) —
// with objectives of either sign, negated as a whole by one byte (a
// minimization), under rows of three shapes: random terms (zero coefficients
// and either sign included) under either operator, or as a ≥ row written with
// both sides negated; a choice row the lean compiler emits, Σ x ≤ 1; and the
// same choice tied to an indicator, Σ x − y ≤ 0, as it was emitted before.
func presolveModel(in *fuzzInput) *Model {
	m := &Model{}
	sign := 1.0
	if in.next(2) == 1 {
		sign = -1
	}
	nv := 1 + in.next(7)
	for i := 0; i < nv; i++ {
		obj := sign * float64(in.next(9)-4)
		switch in.next(4) {
		case 0:
			v := float64(in.next(3))
			m.AddVar(Integer, v, v, obj)
		case 1:
			m.AddVar(Integer, 0, float64(1+in.next(3)), obj)
		default:
			m.AddVar(Binary, 0, 1, obj)
		}
	}
	for r, rows := 0, in.next(8); r < rows; r++ {
		var terms []Term
		for t, nt := 0, 1+in.next(4); t < nt; t++ {
			terms = append(terms, Term{VarID(in.next(nv)), 1})
		}
		switch in.next(3) {
		case 0:
			for i := range terms {
				terms[i].Coef = float64(in.next(7) - 2)
			}
			addRow(m, terms, in.next(3), float64(in.next(9)-2))
		case 1:
			m.AddConstraint(terms, LE, 1)
		default:
			m.AddConstraint(append(terms, Term{VarID(in.next(nv)), -1}), LE, 0)
		}
	}
	return m
}

// cloneModel copies a model's columns and rows, term arrays included.
func cloneModel(m *Model) *Model {
	c := &Model{Vars: slices.Clone(m.Vars), Cons: slices.Clone(m.Cons)}
	for i := range c.Cons {
		c.Cons[i].Terms = slices.Clone(c.Cons[i].Terms)
	}
	return c
}

// sameModel reports whether two models are equal bit for bit.
func sameModel(a, b *Model) bool {
	if len(a.Vars) != len(b.Vars) || len(a.Cons) != len(b.Cons) {
		return false
	}
	for i, va := range a.Vars {
		vb := b.Vars[i]
		if va.Type != vb.Type || !sameBits(va.Lb, vb.Lb) || !sameBits(va.Ub, vb.Ub) || !sameBits(va.Obj, vb.Obj) {
			return false
		}
	}
	for i, ca := range a.Cons {
		cb := b.Cons[i]
		if ca.Op != cb.Op || !sameBits(ca.RHS, cb.RHS) ||
			!slices.EqualFunc(ca.Terms, cb.Terms, func(x, y Term) bool { return x.Var == y.Var && sameBits(x.Coef, y.Coef) }) {
			return false
		}
	}
	return true
}

// FuzzPresolve: presolve leaves its input bit for bit as it was, though the
// reduced model may share the input's term arrays — also once the reduced model
// has been solved; it calls the model infeasible only when brute force finds no
// point, and the reduced model has no point exactly when brute force finds
// none; and the reduced optimum, over the input's own variables, is feasible in
// the input and worth the brute-force optimum.
func FuzzPresolve(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 5, 2, 2, 1, 0, 1, 1, 1, 0, 1, 1}) // a choice row twice: a row dropped
	f.Add([]byte{1, 4, 6, 2, 2, 0, 1, 3, 1, 2, 4, 2, 2, 1, 2, 0, 3, 1, 2, 4, 2, 0, 4, 1, 0, 2, 1, 5, 2, 1, 3, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		m := presolveModel(&in)
		before := cloneModel(m)
		pre := Presolve(m)
		if !sameModel(m, before) {
			t.Fatalf("presolve changed its input:\n%s\nnow:\n%s", before, m)
		}
		best := bruteForce(m) // NaN: infeasible
		if pre.Infeasible {
			if !math.IsNaN(best) {
				t.Fatalf("presolve calls the model infeasible, brute force finds %v\n%s", best, before)
			}
			return
		}
		red, err := Solve(pre.Model, Options{DisablePresolve: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(best) != (red.Status == StatusInfeasible) {
			t.Fatalf("the reduced model solves %v, brute force finds %v on the input\n%s\nreduced:\n%s", red.Status, best, before, pre.Model)
		}
		if !math.IsNaN(best) && (!m.IsFeasible(red.Values, 1e-6) || math.Abs(m.ObjectiveValue(red.Values)-red.Objective) > 1e-6 ||
			math.Abs(red.Objective-best) > 1e-6) {
			t.Fatalf("reduced optimum %v worth %v in the input (objective %v), brute force finds %v\n%s\nreduced:\n%s",
				red.Values, m.ObjectiveValue(red.Values), red.Objective, best, before, pre.Model)
		}
		if !sameModel(m, before) {
			t.Fatalf("solving the reduced model changed the input:\n%s\nnow:\n%s", before, m)
		}
	})
}
