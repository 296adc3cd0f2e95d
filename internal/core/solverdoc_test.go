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
	simMain     = "../../cmd/tetrisim/main.go"
	daemonMain  = "../../cmd/tetrischedd/main.go"
	switchBegin = "<!-- switch table: one row per field of core.Config and milp.Options (TestSolverDocSwitchTable) -->\n"
	switchEnd   = "<!-- end switch table -->\n"
)

// TestSolverDocSwitchTable keeps docs/SOLVER.md's switch table true: it has
// one row for every field of core.Config and of milp.Options, no row for a
// field that does not exist, and every command flag its Flag column names
// (`-solver-limit`, `-sched ng`) is defined by tetrisim or tetrischedd.
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

	defined := make(map[string]bool)
	def := regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([^"]+)"`)
	for _, src := range []string{simMain, daemonMain} {
		code, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range def.FindAllStringSubmatch(string(code), -1) {
			defined[m[1]] = true
		}
	}
	flagRef := regexp.MustCompile("`-([a-z0-9-]+)[^`]*`")
	checked := 0
	for _, line := range strings.Split(doc[b:e], "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !row.MatchString(line) {
			continue
		}
		for _, m := range flagRef.FindAllStringSubmatch(cells[2], -1) {
			checked++
			if !defined[m[1]] {
				t.Errorf("%s's switch table names the flag -%s, which neither %s nor %s defines",
					solverDoc, m[1], simMain, daemonMain)
			}
		}
	}
	if checked == 0 {
		t.Errorf("%s's switch table names no command flag: has its Flag column moved?", solverDoc)
	}
}
