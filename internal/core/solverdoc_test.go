package core

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"tetrisched/internal/milp"
)

const (
	solverDoc   = "../../docs/SOLVER.md"
	switchBegin = "<!-- switch table: one row per field of core.Config and milp.Options (TestSolverDocSwitchTable) -->\n"
	switchEnd   = "<!-- end switch table -->\n"
)

// TestSolverDocSwitchTable keeps docs/SOLVER.md's switch table true: it has
// one row for every field of core.Config and of milp.Options, and no row for a
// field that does not exist.
func TestSolverDocSwitchTable(t *testing.T) {
	raw, err := os.ReadFile(solverDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	b, e := strings.Index(doc, switchBegin), strings.Index(doc, switchEnd)
	if b < 0 || e < b {
		t.Fatalf("%s has lost its switch-table markers", solverDoc)
	}
	row := regexp.MustCompile("(?m)^\\| `((?:core\\.Config|milp\\.Options)\\.[A-Za-z0-9_]+)` \\|")
	listed := make(map[string]bool)
	for _, m := range row.FindAllStringSubmatch(doc[b:e], -1) {
		if listed[m[1]] {
			t.Errorf("%s lists %s twice", solverDoc, m[1])
		}
		listed[m[1]] = true
	}
	fields := make(map[string]bool)
	for prefix, typ := range map[string]reflect.Type{
		"core.Config.":  reflect.TypeOf(Config{}),
		"milp.Options.": reflect.TypeOf(milp.Options{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			fields[prefix+typ.Field(i).Name] = true
		}
	}
	for f := range fields {
		if !listed[f] {
			t.Errorf("%s's switch table has no row for %s", solverDoc, f)
		}
	}
	for f := range listed {
		if !fields[f] {
			t.Errorf("%s's switch table names %s, which does not exist", solverDoc, f)
		}
	}
}
