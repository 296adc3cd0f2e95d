package milp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestWriteLP(t *testing.T) {
	m := &Model{}
	x := m.AddVar(Binary, 0, 1, 4)
	y := m.AddVar(Integer, 0, 3, 0)
	z := m.AddVar(Continuous, math.Inf(-1), Inf, -1)
	w := m.AddVar(Continuous, 2, 2, 0)
	m.AddConstraint([]Term{{x, 2}, {y, 1}}, LE, 3)
	m.AddConstraint([]Term{{y, 1}, {z, -1}}, LE, 0)
	m.AddConstraint([]Term{{w, 1}}, EQ, 2)

	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Maximize",
		"obj: 4 x0 - 1 x2",
		"Subject To",
		"c0: 2 x0 + 1 x1 <= 3",
		"c1: 1 x1 - 1 x2 <= 0",
		"c2: 1 x3 = 2",
		"Bounds",
		"x2 free",
		"x3 = 2",
		"0 <= x1 <= 3",
		"Binary\n x0\n",
		"General\n x1\n",
		"End",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("LP output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteLPEmptyObjective(t *testing.T) {
	m := &Model{}
	m.AddVar(Continuous, 0, 1, 0)
	m.AddConstraint(nil, LE, 1)
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Maximize") || !strings.Contains(buf.String(), "0 x") {
		t.Errorf("degenerate LP malformed:\n%s", buf.String())
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) {
	return 0, bytes.ErrTooLarge
}

func TestWriteLPPropagatesErrors(t *testing.T) {
	m := &Model{}
	m.AddVar(Binary, 0, 1, 1)
	if err := m.WriteLP(failingWriter{}); err == nil {
		t.Errorf("writer error swallowed")
	}
}
