// Package milp implements a small mixed-integer linear programming solver for
// one kind of problem: maximize a linear objective over bounded continuous,
// integer and binary variables subject to ≤ and = rows. It runs a
// bounded-variable revised simplex LP kernel (primal phase 1/2 for cold
// starts, dual simplex for warm restarts from a parent basis) under a
// best-bound branch-and-bound search with MIP-gap and work limits; see
// docs/SOLVER.md, one section per mechanism.
//
// It fills the role IBM CPLEX plays in the TetriSched paper (§3.2.2): the
// STRL compiler targets this package's Model type, and the scheduler asks for
// solutions that are optimal within a configurable relative gap, optionally
// seeded with the previous cycle's solution as an incumbent. A minimization
// is the maximization of the negated objective, and a ≥ row is the ≤ row
// with both sides negated.
package milp

import (
	"fmt"
	"math"
	"strings"

	"tetrisched/internal/slab"
)

// VarType describes the integrality requirement of a variable.
type VarType int

// Variable types.
const (
	Continuous VarType = iota
	Integer
	Binary
)

func (t VarType) String() string {
	switch t {
	case Continuous:
		return "continuous"
	case Integer:
		return "integer"
	case Binary:
		return "binary"
	}
	return fmt.Sprintf("VarType(%d)", int(t))
}

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // ≤
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Inf is positive infinity, usable as a variable bound.
var Inf = math.Inf(1)

// VarID identifies a variable within its Model.
type VarID int

// Term is a coefficient applied to a variable in a constraint.
type Term struct {
	Var  VarID
	Coef float64
}

// Variable holds the definition of a model variable. A variable has no name:
// it is its index, and the printers call it x<index>. With no pointer in it, a
// model's variables are never scanned by the garbage collector.
type Variable struct {
	Type VarType
	Lb   float64
	Ub   float64
	Obj  float64
}

// Constraint is a linear constraint Σ coef·var  op  RHS. Like a variable it
// is known by its index (c<index> in the printers).
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
}

// Model is a mixed-integer linear program that maximizes Σ Obj·x. Build it
// with AddVar and AddConstraint from the zero value, then pass it to Solve. A
// Model is not safe for concurrent mutation, but may be solved concurrently
// once fully built.
//
// Rows added through AddConstraint live in a term arena of chunks: each
// Constraint.Terms is a capacity-limited sub-slice of one chunk, so a model
// costs a handful of allocations however many rows it has. The chunks are
// kept across Reset, so a Model rebuilt at any size up to the largest it has
// held allocates nothing for its rows.
type Model struct {
	Vars []Variable
	Cons []Constraint

	chunks [][]Term // every chunk of the arena, in the order they are filled
	cur    int      // the chunk rows are being added to
	arena  []Term   // chunks[cur] up to its last row
	// slot[v] is the arena index of v's term in the row AddConstraint is
	// merging, valid only while that index lies inside the row and holds v
	// (the sparse-set test), so it is never cleared between rows.
	slot []int32
}

// Reset empties the model for another build that reuses its storage: a
// builder that cannot know a model's size in advance (the compiler) assembles
// every model in one long-lived Model, at no allocation once that has grown
// to fit. The previous model's variables and rows are overwritten: the term
// arena rewinds to its first chunk.
func (m *Model) Reset() {
	m.Vars, m.Cons = m.Vars[:0], m.Cons[:0]
	m.cur, m.arena = 0, nil
	if len(m.chunks) > 0 {
		m.arena = m.chunks[0][:0]
	}
}

// AddVar adds a variable and returns its ID. Binary variables have their
// bounds clamped to [0,1] regardless of the supplied lb/ub.
func (m *Model) AddVar(typ VarType, lb, ub, obj float64) VarID {
	if typ == Binary {
		lb, ub = math.Max(lb, 0), math.Min(ub, 1)
	}
	m.Vars = append(slab.Grow(m.Vars, 1), Variable{Type: typ, Lb: lb, Ub: ub, Obj: obj})
	return VarID(len(m.Vars) - 1)
}

// AddConstraint adds Σ terms op rhs. Terms referring to the same variable are
// merged: the variable keeps the position of its first occurrence and the
// coefficients are summed in order. terms is copied, not retained.
func (m *Model) AddConstraint(terms []Term, op Op, rhs float64) {
	row := m.rowSpace(len(terms))
	lo := len(row)
	if len(m.slot) < len(m.Vars) {
		// Sized to the capacity of Vars, so it regrows only when Vars does.
		// Stale entries are harmless (see slot).
		m.slot = append(make([]int32, 0, cap(m.Vars)), m.slot...)[:cap(m.Vars)]
	}
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(m.Vars) {
			// Not a variable of this model: kept as written, for Validate
			// to report as a bad var id.
			row = append(row, t)
			continue
		}
		if i := int(m.slot[t.Var]); i >= lo && i < len(row) && row[i].Var == t.Var {
			row[i].Coef += t.Coef
			continue
		}
		m.slot[t.Var] = int32(len(row))
		row = append(row, t)
	}
	m.arena = row
	m.Cons = append(slab.Grow(m.Cons, 1), Constraint{Terms: row[lo:len(row):len(row)], Op: op, RHS: rhs})
}

// rowSpace returns the arena with room for n more terms. When the current
// chunk is full it moves on to the next kept chunk that has room, and only
// past the last one allocates a new chunk, twice the size of the last, so a
// model of unknown size is built in a logarithmic number of chunks.
func (m *Model) rowSpace(n int) []Term {
	if n <= cap(m.arena)-len(m.arena) {
		return m.arena
	}
	for m.cur+1 < len(m.chunks) {
		m.cur++
		if c := m.chunks[m.cur]; n <= cap(c) {
			return c[:0]
		}
	}
	size := 16
	if len(m.chunks) > 0 {
		size = 2 * cap(m.chunks[len(m.chunks)-1])
	}
	m.chunks = append(m.chunks, make([]Term, 0, max(n, size)))
	m.cur = len(m.chunks) - 1
	return m.chunks[m.cur]
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.Vars) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.Cons) }

// NumIntVars returns the number of integer and binary variables.
func (m *Model) NumIntVars() int {
	n := 0
	for _, v := range m.Vars {
		if v.Type != Continuous {
			n++
		}
	}
	return n
}

// Validate checks structural sanity: bounds ordered, terms in range, finite
// coefficients.
func (m *Model) Validate() error {
	for i, v := range m.Vars {
		if v.Lb > v.Ub {
			return fmt.Errorf("milp: var x%d: lb %v > ub %v", i, v.Lb, v.Ub)
		}
		if math.IsNaN(v.Lb) || math.IsNaN(v.Ub) || math.IsNaN(v.Obj) || math.IsInf(v.Obj, 0) {
			return fmt.Errorf("milp: var x%d: invalid bound or objective", i)
		}
		if v.Type != Continuous && (math.IsInf(v.Lb, -1) || math.IsInf(v.Ub, 1)) {
			return fmt.Errorf("milp: integer var x%d must have finite bounds", i)
		}
	}
	for i, c := range m.Cons {
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("milp: constraint c%d: invalid rhs", i)
		}
		for _, t := range c.Terms {
			if t.Var < 0 || int(t.Var) >= len(m.Vars) {
				return fmt.Errorf("milp: constraint c%d: bad var id %d", i, t.Var)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("milp: constraint c%d: invalid coefficient", i)
			}
		}
	}
	return nil
}

// ObjectiveValue evaluates the objective at the given point.
func (m *Model) ObjectiveValue(x []float64) float64 {
	obj := 0.0
	for i, v := range m.Vars {
		obj += v.Obj * x[i]
	}
	return obj
}

// IsFeasible reports whether x satisfies all bounds, integrality, and
// constraints within tol.
func (m *Model) IsFeasible(x []float64, tol float64) bool {
	if len(x) != len(m.Vars) {
		return false
	}
	for i, v := range m.Vars {
		if x[i] < v.Lb-tol || x[i] > v.Ub+tol {
			return false
		}
		if v.Type != Continuous && math.Abs(x[i]-math.Round(x[i])) > tol {
			return false
		}
	}
	for _, c := range m.Cons {
		lhs := 0.0
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Var]
		}
		switch c.Op {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the model in an LP-like text format, useful for debugging
// compiled STRL expressions.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteString("maximize\n  ")
	first := true
	for i, v := range m.Vars {
		if v.Obj == 0 {
			continue
		}
		writeTerm(&b, &first, v.Obj, varName(VarID(i)))
	}
	if first {
		b.WriteString("0")
	}
	b.WriteString("\nsubject to\n")
	for i, c := range m.Cons {
		fmt.Fprintf(&b, "  c%d: ", i)
		cf := true
		for _, t := range c.Terms {
			writeTerm(&b, &cf, t.Coef, varName(t.Var))
		}
		if cf {
			b.WriteString("0")
		}
		fmt.Fprintf(&b, " %s %g\n", c.Op, c.RHS)
	}
	b.WriteString("bounds\n")
	for i, v := range m.Vars {
		fmt.Fprintf(&b, "  %g <= %s <= %g  [%s]\n", v.Lb, varName(VarID(i)), v.Ub, v.Type)
	}
	return b.String()
}

// varName is the name the printers give variable v.
func varName(v VarID) string { return fmt.Sprintf("x%d", int(v)) }

func writeTerm(b *strings.Builder, first *bool, coef float64, name string) {
	switch {
	case *first:
		if coef == 1 {
			b.WriteString(name)
		} else if coef == -1 {
			b.WriteString("-" + name)
		} else {
			fmt.Fprintf(b, "%g %s", coef, name)
		}
		*first = false
	case coef >= 0:
		if coef == 1 {
			fmt.Fprintf(b, " + %s", name)
		} else {
			fmt.Fprintf(b, " + %g %s", coef, name)
		}
	default:
		if coef == -1 {
			fmt.Fprintf(b, " - %s", name)
		} else {
			fmt.Fprintf(b, " - %g %s", -coef, name)
		}
	}
}
