package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/metrics"
	"tetrisched/internal/workload"
)

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GR_SLO", "GR_MIX", "GS_MIX", "GS_HET", "100%", "75%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TetriSched-NH", "TetriSched-NG", "TetriSched-NP"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestRunOneAndAveraged(t *testing.T) {
	sc := Bench()
	c := cluster.RC80(false)
	mix := workload.GSMIX(sc.Jobs)
	sum, err := RunOne(c, mix, 1, tetri(sc), sc.CyclePeriod)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NumSLO+sum.NumBE != sc.Jobs {
		t.Errorf("job accounting: SLO=%d BE=%d, want total %d", sum.NumSLO, sum.NumBE, sc.Jobs)
	}
	avg, err := Averaged(c, mix, sc, RayonCS())
	if err != nil {
		t.Fatal(err)
	}
	if avg.Scheduler != "Rayon/CS" {
		t.Errorf("scheduler name = %q", avg.Scheduler)
	}
}

// TestFig9BenchScale exercises the full Fig 9 code path (three schedulers ×
// error sweep) at the benchmark scale and sanity-checks the output format.
func TestFig9BenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	var buf bytes.Buffer
	if err := Fig9(&buf, Bench()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 9(a)", "Fig 9(d)", "TetriSched-NH", "Rayon/CS", "-50", "+50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 9 output missing %q:\n%s", want, out)
		}
	}
}

func TestVariantBuilders(t *testing.T) {
	sc := Bench()
	b := variant(sc, func(c *core.Config) { c.Greedy = true })
	if b.Name != "TetriSched-NG" {
		t.Errorf("variant name = %q", b.Name)
	}
	c := cluster.RC80(false)
	s := b.Build(c, nil)
	if s.Name() != "TetriSched-NG" {
		t.Errorf("built scheduler name = %q", s.Name())
	}
}

func TestTSVExport(t *testing.T) {
	dir := t.TempDir()
	SetTSVDir(dir)
	defer SetTSVDir("")
	s := newSeries("err(%)", []string{"A", "B"})
	s.add("-50", metrics.Summary{Scheduler: "A", SLOAll: 10})
	s.add("-50", metrics.Summary{Scheduler: "B", SLOAll: 20})
	s.add("+0", metrics.Summary{Scheduler: "A", SLOAll: 30})
	var buf bytes.Buffer
	s.printMetric(&buf, "Fig 6(a) — SLO attainment, all SLO jobs (%)", sloAll, "%")
	data, err := os.ReadFile(filepath.Join(dir, "fig6a.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"err(%)\tA\tB", "-50\t10.000\t20.000", "+0\t30.000\t"} {
		if !strings.Contains(out, want) {
			t.Errorf("TSV missing %q:\n%s", want, out)
		}
	}
}

// readTSV reads a sub-figure's TSV into its x labels and, per column, the
// values down the rows.
func readTSV(t *testing.T, path string) ([]string, map[string][]float64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "#") {
		t.Fatalf("%s: no title, header and rows:\n%s", path, data)
	}
	header := strings.Split(lines[1], "\t")
	var xs []string
	cols := map[string][]float64{}
	for _, line := range lines[2:] {
		cells := strings.Split(line, "\t")
		if len(cells) != len(header) {
			t.Fatalf("%s: row %q has %d cells, the header %d", path, line, len(cells), len(header))
		}
		xs = append(xs, cells[0])
		for i, cell := range cells[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: %s at %s: %v", path, header[i+1], cells[0], err)
			}
			cols[header[i+1]] = append(cols[header[i+1]], v)
		}
	}
	return xs, cols
}

// TestFigureShapes runs Figs 10 and 11 at the quick scale and checks the
// shape the paper reports on the all-SLO attainment they write: in Fig 10,
// global scheduling beats greedy and greedy beats Rayon/CS (ties allowed) at
// every estimate error; in Fig 11, TetriSched's attainment never falls as the
// plan-ahead window grows. Every figure is a function of its seeds, so the
// check is exact; only attainment is read, no wall-clock column.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("two figure sweeps")
	}
	dir := t.TempDir()
	SetTSVDir(dir)
	defer SetTSVDir("")
	if err := Fig10(io.Discard, Quick()); err != nil {
		t.Fatal(err)
	}
	if err := Fig11(io.Discard, Quick()); err != nil {
		t.Fatal(err)
	}

	xs, slo := readTSV(t, filepath.Join(dir, "fig10a.tsv"))
	if len(xs) != 5 {
		t.Fatalf("Fig 10(a) has %d error points, want 5", len(xs))
	}
	for i, x := range xs {
		global, greedy, cs := slo["TetriSched"][i], slo["TetriSched-NG"][i], slo["Rayon/CS"][i]
		if global < greedy || greedy < cs {
			t.Errorf("Fig 10(a) at error %s%%: TetriSched %.1f, TetriSched-NG %.1f, Rayon/CS %.1f; want them in that order", x, global, greedy, cs)
		}
	}

	xs, slo = readTSV(t, filepath.Join(dir, "fig11a.tsv"))
	if len(xs) != 5 {
		t.Fatalf("Fig 11(a) has %d plan-ahead points, want 5", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if prev, cur := slo["TetriSched"][i-1], slo["TetriSched"][i]; cur < prev {
			t.Errorf("Fig 11(a): TetriSched falls from %.1f at plan-ahead %s to %.1f at %s", prev, xs[i-1], cur, xs[i])
		}
	}
}
