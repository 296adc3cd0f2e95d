package rayon

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// RDL is the subset of Rayon's Reservation Definition Language that the
// paper's integration uses (§4.4):
//
//	Window(s=0, f=3, Atom(b=<16GB,8c>, k=2, gang=2, dur=3))
//
// The inner Atom reserves a gang of k containers of size b for dur time
// units; the Window bounds the feasible execution range [s, f]. TetriSched's
// STRL Generator combines this coarse reservation information with the
// ApplicationMaster-specified job type to enumerate space-time options.

// Container describes one container's resource ask (the "b" of an Atom).
type Container struct {
	MemMB int
	Cores int
}

// String prints the memory size in GB when it is a whole number of them and
// in MB otherwise, so that it parses back to the same Container.
func (c Container) String() string {
	if c.MemMB%1024 != 0 {
		return fmt.Sprintf("<%dMB,%dc>", c.MemMB, c.Cores)
	}
	return fmt.Sprintf("<%dGB,%dc>", c.MemMB/1024, c.Cores)
}

// Atom is a gang reservation request: K containers of size B, all Gang of
// them simultaneously, for Dur seconds.
type Atom struct {
	B    Container
	K    int
	Gang int
	Dur  int64
}

func (a Atom) String() string {
	return fmt.Sprintf("Atom(b=%s, k=%d, gang=%d, dur=%d)", a.B, a.K, a.Gang, a.Dur)
}

// Window bounds an Atom to the absolute time range [S, F].
type Window struct {
	S, F int64
	Atom Atom
}

func (w Window) String() string {
	return fmt.Sprintf("Window(s=%d, f=%d, %s)", w.S, w.F, w.Atom)
}

// Validate checks structural constraints: a nonempty range from time 0 on,
// long enough for the atom, a full gang, and positive sizes.
func (w Window) Validate() error {
	if w.S < 0 {
		return fmt.Errorf("rdl: window start s=%d is before time 0", w.S)
	}
	if w.F < w.S {
		return fmt.Errorf("rdl: window [%d,%d] is empty", w.S, w.F)
	}
	a := w.Atom
	if a.K <= 0 {
		return fmt.Errorf("rdl: atom k=%d must be positive", a.K)
	}
	if a.Gang <= 0 || a.Gang > a.K {
		return fmt.Errorf("rdl: gang=%d must be in [1,k=%d]", a.Gang, a.K)
	}
	if a.Dur <= 0 {
		return fmt.Errorf("rdl: dur=%d must be positive", a.Dur)
	}
	if a.Dur > w.F-w.S {
		return fmt.Errorf("rdl: window [%d,%d] shorter than dur=%d", w.S, w.F, a.Dur)
	}
	return nil
}

// AdmitRDL admits a validated RDL window against the plan: the earliest
// feasible gang-of-k reservation inside [S, F]. It returns nil (rejected)
// when the plan cannot honor the guarantee.
func (p *Plan) AdmitRDL(jobID int, w Window) (*Reservation, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return p.Admit(jobID, w.S, w.F, w.Atom.K, w.Atom.Dur), nil
}

// ParseRDL reads the textual Window(...) form. Sizes like b=<16GB,8c> are
// accepted and retained; only k, gang, and dur affect admission in this
// node-granular model.
func ParseRDL(src string) (Window, error) {
	p := &rdlParser{src: strings.TrimSpace(src)}
	w, err := p.window()
	if err != nil {
		return Window{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Window{}, fmt.Errorf("rdl: trailing input at %q", p.src[p.pos:])
	}
	if err := w.Validate(); err != nil {
		return Window{}, err
	}
	return w, nil
}

type rdlParser struct {
	src string
	pos int
}

func (p *rdlParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *rdlParser) expect(tok string) error {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], tok) {
		return fmt.Errorf("rdl: expected %q at offset %d", tok, p.pos)
	}
	p.pos += len(tok)
	return nil
}

func (p *rdlParser) expectFold(tok string) error {
	p.skipSpace()
	if len(p.src[p.pos:]) < len(tok) || !strings.EqualFold(p.src[p.pos:p.pos+len(tok)], tok) {
		return fmt.Errorf("rdl: expected %q at offset %d", tok, p.pos)
	}
	p.pos += len(tok)
	return nil
}

func (p *rdlParser) int64Field(name string) (int64, error) {
	if err := p.expectFold(name); err != nil {
		return 0, err
	}
	if err := p.expect("="); err != nil {
		return 0, err
	}
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && (p.src[p.pos] == '-' || (p.src[p.pos] >= '0' && p.src[p.pos] <= '9')) {
		p.pos++
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("rdl: bad number for %s at offset %d", name, start)
	}
	return v, nil
}

func (p *rdlParser) window() (Window, error) {
	var w Window
	if err := p.expectFold("Window"); err != nil {
		return w, err
	}
	if err := p.expect("("); err != nil {
		return w, err
	}
	var err error
	if w.S, err = p.int64Field("s"); err != nil {
		return w, err
	}
	if err := p.expect(","); err != nil {
		return w, err
	}
	if w.F, err = p.int64Field("f"); err != nil {
		return w, err
	}
	if err := p.expect(","); err != nil {
		return w, err
	}
	if w.Atom, err = p.atom(); err != nil {
		return w, err
	}
	if err := p.expect(")"); err != nil {
		return w, err
	}
	return w, nil
}

func (p *rdlParser) atom() (Atom, error) {
	var a Atom
	if err := p.expectFold("Atom"); err != nil {
		return a, err
	}
	if err := p.expect("("); err != nil {
		return a, err
	}
	// Optional container size: b=<16GB,8c>,
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "b=") || strings.HasPrefix(p.src[p.pos:], "B=") {
		p.pos += 2
		if err := p.expect("<"); err != nil {
			return a, err
		}
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			return a, fmt.Errorf("rdl: unterminated container size")
		}
		spec := p.src[p.pos : p.pos+end]
		p.pos += end + 1
		if err := parseContainer(spec, &a.B); err != nil {
			return a, err
		}
		if err := p.expect(","); err != nil {
			return a, err
		}
	}
	k, err := p.int64Field("k")
	if err != nil {
		return a, err
	}
	a.K = int(k)
	if err := p.expect(","); err != nil {
		return a, err
	}
	g, err := p.int64Field("gang")
	if err != nil {
		return a, err
	}
	a.Gang = int(g)
	if err := p.expect(","); err != nil {
		return a, err
	}
	if a.Dur, err = p.int64Field("dur"); err != nil {
		return a, err
	}
	if err := p.expect(")"); err != nil {
		return a, err
	}
	return a, nil
}

// parseContainer reads "16GB,8c" into a Container. Sizes are non-negative.
func parseContainer(spec string, c *Container) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		lower := strings.ToLower(part)
		var unit string
		var dst *int
		scale := 1
		switch {
		case strings.HasSuffix(lower, "gb"):
			unit, dst, scale = "gb", &c.MemMB, 1024
		case strings.HasSuffix(lower, "mb"):
			unit, dst = "mb", &c.MemMB
		case strings.HasSuffix(lower, "c"):
			unit, dst = "c", &c.Cores
		default:
			return fmt.Errorf("rdl: unknown container component %q", part)
		}
		v, err := strconv.Atoi(strings.TrimSuffix(lower, unit))
		if err != nil || v < 0 || v > math.MaxInt/scale {
			return fmt.Errorf("rdl: bad container size %q", part)
		}
		*dst = v * scale
	}
	return nil
}
