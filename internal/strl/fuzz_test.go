package strl

import "testing"

// FuzzParseRoundTrip: whatever Parse accepts prints (String) to text that
// parses again and prints identically. The committed corpus
// (testdata/fuzz/FuzzParseRoundTrip) holds a value printed with an exponent
// sign, "v=1e+21", which the lexer once split into the identifier "v=1e" and
// the number "+21".
func FuzzParseRoundTrip(f *testing.F) {
	for _, src := range []string{
		"max(nCk({0, 1}, k=2, start=0, dur=2, v=4), nCk({*}, k=2, start=1, dur=3, v=3))",
		"sum(min(nCk({0}, k=1, dur=1, v=2), nCk({1}, k=1, dur=1, v=2)), scale(LnCk({0,1,2}, k=3, start=2, dur=4, v=6), 1.5), barrier(nCk({2}, k=1, dur=1, v=9), 9))",
		"nCk({3}, k = 1, dur = 2, v = -1.5e-07)",
		"LnCk(*, k=2, dur=1, v=2.5E+3)",
	} {
		f.Add(src)
	}
	res := NumericResolver(8)
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src, res)
		if err != nil {
			return
		}
		text := e.String()
		again, err := Parse(text, res)
		if err != nil {
			t.Fatalf("Parse accepts %q, but not its printed form %q: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q prints as %q, which prints as %q", src, text, got)
		}
	})
}
