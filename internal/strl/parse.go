package strl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"tetrisched/internal/bitset"
)

// Resolver supplies node sets for symbolic names appearing in STRL text and
// the universe size for numeric node lists.
type Resolver interface {
	// ResolveSet maps a symbolic set item (e.g. "*", "rack:r0", "gpu") to a
	// node set.
	ResolveSet(name string) (*bitset.Set, error)
	// Universe returns the cluster size, the capacity of parsed sets.
	Universe() int
}

// NumericResolver resolves only numeric node IDs and "*" over a fixed
// universe; sufficient for tests and round-tripping printed expressions.
type NumericResolver int

// ResolveSet implements Resolver: only "*" is symbolic.
func (n NumericResolver) ResolveSet(name string) (*bitset.Set, error) {
	if name == "*" {
		s := bitset.New(int(n))
		s.Fill()
		return s, nil
	}
	return nil, fmt.Errorf("strl: unknown set name %q", name)
}

// Universe implements Resolver.
func (n NumericResolver) Universe() int { return int(n) }

// Parse reads a textual STRL expression such as
//
//	max(nCk({0, 1}, k=2, start=0, dur=2, v=4),
//	    nCk({*}, k=2, start=0, dur=3, v=3))
//
// resolving symbolic set items through res. Numeric set items are node IDs.
func Parse(src string, res Resolver) (Expr, error) {
	p := &parser{src: src, res: res}
	p.next()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing input at %q", p.tok.text)
	}
	if err := Validate(e); err != nil {
		return nil, err
	}
	return e, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokEq
	tokStar
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	src string
	pos int
	tok token
	res Resolver
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("strl: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) next() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.pos]
	switch c {
	case '(':
		p.pos++
		p.tok = token{tokLParen, "(", start}
	case ')':
		p.pos++
		p.tok = token{tokRParen, ")", start}
	case '{':
		p.pos++
		p.tok = token{tokLBrace, "{", start}
	case '}':
		p.pos++
		p.tok = token{tokRBrace, "}", start}
	case ',':
		p.pos++
		p.tok = token{tokComma, ",", start}
	case '=':
		p.pos++
		p.tok = token{tokEq, "=", start}
	case '*':
		p.pos++
		p.tok = token{tokStar, "*", start}
	default:
		if c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9') {
			p.pos++
			for p.pos < len(p.src) && (isDigit(p.src[p.pos]) || p.src[p.pos] == '.' ||
				p.src[p.pos] == 'e' || p.src[p.pos] == 'E' ||
				((p.src[p.pos] == '-' || p.src[p.pos] == '+') && (p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E'))) {
				p.pos++
			}
			p.tok = token{tokNumber, p.src[start:p.pos], start}
			return
		}
		if isIdentStart(c) {
			p.pos++
			for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
				p.pos++
			}
			p.tok = token{tokIdent, p.src[start:p.pos], start}
			return
		}
		p.tok = token{tokEOF, string(c), start}
		p.pos++
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == ':' || c == '=' || c == '-' || c == '.' || c == '/'
}

func (p *parser) expect(k tokKind, what string) error {
	if p.tok.kind != k {
		return p.errf("expected %s, found %q", what, p.tok.text)
	}
	p.next()
	return nil
}

func (p *parser) parseExpr() (Expr, error) {
	if p.tok.kind != tokIdent {
		return nil, p.errf("expected expression, found %q", p.tok.text)
	}
	op := p.tok.text
	p.next()
	if err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	switch strings.ToLower(op) {
	case "nck":
		return p.parseLeaf(false)
	case "lnck":
		return p.parseLeaf(true)
	case "max", "min", "sum":
		var kids []Expr
		for {
			kid, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			kids = append(kids, kid)
			if p.tok.kind != tokComma {
				break
			}
			p.next()
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		switch strings.ToLower(op) {
		case "max":
			return &Max{Kids: kids}, nil
		case "min":
			return &Min{Kids: kids}, nil
		default:
			return &Sum{Kids: kids}, nil
		}
	case "scale", "barrier":
		kid, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokComma, "','"); err != nil {
			return nil, err
		}
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if strings.ToLower(op) == "scale" {
			return &Scale{Kid: kid, S: v}, nil
		}
		return &Barrier{Kid: kid, V: v}, nil
	default:
		return nil, p.errf("unknown operator %q", op)
	}
}

// parseLeaf parses the remainder of nCk(...)/LnCk(...) after the '('.
func (p *parser) parseLeaf(linear bool) (Expr, error) {
	set, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	fields := map[string]float64{}
	for p.tok.kind == tokComma {
		p.next()
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected field name, found %q", p.tok.text)
		}
		// The lexer folds "k=2" into one ident because '=' is an ident char
		// (set names such as attr:gpu=true need it), and an ident stops short
		// of the '+' in "v=1e+21": lex the value again from just after the
		// first '='.
		name := p.tok.text
		i := strings.IndexByte(name, '=')
		if i >= 0 {
			name, p.pos = name[:i], p.tok.pos+i+1
		}
		p.next()
		if i < 0 && p.tok.kind == tokEq {
			p.next()
		}
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		fields[strings.ToLower(name)] = v
	}
	if err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	for _, f := range []string{"k", "dur"} {
		if _, ok := fields[f]; !ok {
			return nil, fmt.Errorf("strl: leaf missing field %q", f)
		}
	}
	k := int(fields["k"])
	start := int64(fields["start"])
	dur := int64(fields["dur"])
	v, ok := fields["v"]
	if !ok {
		v = 1
	}
	if linear {
		return &LnCk{Set: set, K: k, Start: start, Dur: dur, Value: v}, nil
	}
	return &NCk{Set: set, K: k, Start: start, Dur: dur, Value: v}, nil
}

func (p *parser) parseNumber() (float64, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errf("expected number, found %q", p.tok.text)
	}
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return 0, p.errf("bad number %q", p.tok.text)
	}
	p.next()
	return v, nil
}

// parseSet parses {item, item, ...} where items are node IDs or symbolic
// names resolved through the Resolver; a bare name (no braces) is also
// accepted.
func (p *parser) parseSet() (*bitset.Set, error) {
	set := bitset.New(p.res.Universe())
	addItem := func() error {
		switch p.tok.kind {
		case tokNumber:
			id, err := strconv.Atoi(p.tok.text)
			if err != nil || id < 0 || id >= p.res.Universe() {
				return p.errf("bad node id %q", p.tok.text)
			}
			set.Add(id)
			p.next()
			return nil
		case tokIdent, tokStar:
			s, err := p.res.ResolveSet(p.tok.text)
			if err != nil {
				return p.errf("%v", err)
			}
			if s.Cap() != set.Cap() {
				return p.errf("resolver returned set with capacity %d, want %d", s.Cap(), set.Cap())
			}
			set.UnionWith(s)
			p.next()
			return nil
		default:
			return p.errf("expected set item, found %q", p.tok.text)
		}
	}
	if p.tok.kind == tokLBrace {
		p.next()
		if p.tok.kind != tokRBrace {
			for {
				if err := addItem(); err != nil {
					return nil, err
				}
				if p.tok.kind != tokComma {
					break
				}
				p.next()
			}
		}
		if err := p.expect(tokRBrace, "'}'"); err != nil {
			return nil, err
		}
		return set, nil
	}
	if err := addItem(); err != nil {
		return nil, err
	}
	return set, nil
}
