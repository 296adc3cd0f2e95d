package rayon

import (
	"strings"
	"testing"
)

func TestParseRDLPaperExample(t *testing.T) {
	// The exact expression from §4.4.
	w, err := ParseRDL("Window(s=0, f=3, Atom(b=<16GB,8c>, k=2, gang=2, dur=3))")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if w.S != 0 || w.F != 3 {
		t.Errorf("window = [%d,%d]", w.S, w.F)
	}
	a := w.Atom
	if a.K != 2 || a.Gang != 2 || a.Dur != 3 {
		t.Errorf("atom = %+v", a)
	}
	if a.B.MemMB != 16*1024 || a.B.Cores != 8 {
		t.Errorf("container = %+v", a.B)
	}
}

func TestRDLRoundTrip(t *testing.T) {
	src := "Window(s=10, f=500, Atom(b=<4GB,2c>, k=8, gang=8, dur=120))"
	w, err := ParseRDL(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseRDL(w.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", w.String(), err)
	}
	if again != w {
		t.Errorf("round trip: %+v vs %+v", again, w)
	}
}

func TestParseRDLWithoutContainer(t *testing.T) {
	w, err := ParseRDL("Window(s=0, f=100, Atom(k=4, gang=4, dur=50))")
	if err != nil {
		t.Fatal(err)
	}
	if w.Atom.K != 4 || w.Atom.B.MemMB != 0 {
		t.Errorf("atom = %+v", w.Atom)
	}
}

func TestParseRDLErrors(t *testing.T) {
	cases := []string{
		"",
		"Atom(k=1, gang=1, dur=1)", // no window
		"Window(s=0, f=3)",         // no atom
		"Window(s=5, f=3, Atom(k=1, gang=1, dur=1))",          // empty range
		"Window(s=0, f=3, Atom(k=0, gang=1, dur=1))",          // k=0
		"Window(s=0, f=3, Atom(k=2, gang=3, dur=1))",          // gang > k
		"Window(s=0, f=3, Atom(k=2, gang=2, dur=5))",          // dur > window
		"Window(s=0, f=3, Atom(k=2, gang=2, dur=1)) trailing", // trailing
		"Window(s=0, f=3, Atom(b=<16zz,8c>, k=2, gang=2, dur=1))",
		"Window(s=x, f=3, Atom(k=2, gang=2, dur=1))",
		"Window(s=1, f=5, Atom(k=1, gang=1, dur=9223372036854775807))", // s+dur overflows
		"Window(s=-8, f=-1, Atom(k=1, gang=1, dur=5))",                 // before time 0
		"Window(s=0, f=10, Atom(b=<-3GB,1c>, k=2, gang=2, dur=3))",
		"Window(s=0, f=10, Atom(b=<1GB,-1c>, k=2, gang=2, dur=3))",
		"Window(s=0, f=10, Atom(b=<9007199254740992GB,1c>, k=2, gang=2, dur=3))", // MB overflows
	}
	for _, src := range cases {
		if _, err := ParseRDL(src); err == nil {
			t.Errorf("ParseRDL(%q) succeeded, want error", src)
		}
	}
}

func TestAdmitRDL(t *testing.T) {
	p := NewPlan(10, 1)
	w, err := ParseRDL("Window(s=0, f=100, Atom(k=5, gang=5, dur=20))")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.AdmitRDL(1, w)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Start != 0 || r.End != 20 {
		t.Fatalf("reservation = %+v", r)
	}
	// Invalid RDL is an error, not a rejection.
	bad := Window{S: 0, F: 1, Atom: Atom{K: 1, Gang: 1, Dur: 5}}
	if _, err := p.AdmitRDL(2, bad); err == nil {
		t.Errorf("invalid window admitted")
	}
	// Oversized ask is a rejection, not an error.
	big, _ := ParseRDL("Window(s=0, f=100, Atom(k=11, gang=11, dur=10))")
	r2, err := p.AdmitRDL(3, big)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != nil {
		t.Errorf("over-capacity ask accepted: %+v", r2)
	}
}

func TestContainerString(t *testing.T) {
	c := Container{MemMB: 16384, Cores: 8}
	if got := c.String(); !strings.Contains(got, "16GB") || !strings.Contains(got, "8c") {
		t.Errorf("container string = %q", got)
	}
	if got := (Container{MemMB: 512, Cores: 1}).String(); got != "<512MB,1c>" {
		t.Errorf("container string = %q, want <512MB,1c>", got)
	}
}
