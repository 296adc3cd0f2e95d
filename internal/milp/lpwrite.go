package milp

import (
	"fmt"
	"io"
	"strings"
)

// WriteLP emits the model in the CPLEX LP file format, so models generated
// by the STRL compiler can be fed to external solvers (CPLEX, Gurobi, CBC,
// HiGHS) and cross-checked against this package's results — useful given
// that this solver stands in for the paper's CPLEX backend.
func (m *Model) WriteLP(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("Maximize\n obj:")
	wrote := false
	for i, v := range m.Vars {
		if v.Obj == 0 {
			continue
		}
		bw.printf(" %s %s", lpCoef(v.Obj, !wrote), varName(VarID(i)))
		wrote = true
	}
	if !wrote {
		// An empty objective or row names x0, a placeholder in a model
		// without variables.
		bw.printf(" 0 %s", varName(0))
	}
	bw.printf("\nSubject To\n")
	for i, c := range m.Cons {
		bw.printf(" c%d:", i)
		first := true
		for _, t := range c.Terms {
			if t.Coef == 0 {
				continue
			}
			bw.printf(" %s %s", lpCoef(t.Coef, first), varName(t.Var))
			first = false
		}
		if first {
			bw.printf(" 0 %s", varName(0))
		}
		bw.printf(" %s %g\n", c.Op, c.RHS)
	}
	bw.printf("Bounds\n")
	for i, v := range m.Vars {
		name := varName(VarID(i))
		switch {
		case v.Lb == v.Ub:
			bw.printf(" %s = %g\n", name, v.Lb)
		case isNegInf(v.Lb) && isPosInf(v.Ub):
			bw.printf(" %s free\n", name)
		case isNegInf(v.Lb):
			bw.printf(" -inf <= %s <= %g\n", name, v.Ub)
		case isPosInf(v.Ub):
			bw.printf(" %s >= %g\n", name, v.Lb)
		default:
			bw.printf(" %g <= %s <= %g\n", v.Lb, name, v.Ub)
		}
	}
	var bins, gens []string
	for i, v := range m.Vars {
		switch v.Type {
		case Binary:
			bins = append(bins, varName(VarID(i)))
		case Integer:
			gens = append(gens, varName(VarID(i)))
		}
	}
	if len(bins) > 0 {
		bw.printf("Binary\n %s\n", strings.Join(bins, " "))
	}
	if len(gens) > 0 {
		bw.printf("General\n %s\n", strings.Join(gens, " "))
	}
	bw.printf("End\n")
	return bw.err
}

// lpCoef renders a signed coefficient ("+ 2", "- 1") with the sign folded
// into the leading position when first.
func lpCoef(c float64, first bool) string {
	sign := "+"
	if c < 0 {
		sign = "-"
		c = -c
	}
	if first && sign == "+" {
		return fmt.Sprintf("%g", c)
	}
	return fmt.Sprintf("%s %g", sign, c)
}

func isPosInf(v float64) bool { return v > 1e300 }
func isNegInf(v float64) bool { return v < -1e300 }

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
