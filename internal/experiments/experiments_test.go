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

// TestFigureShapes runs Figs 9, 10 and 11 at the quick scale and checks the
// shapes the paper reports, read from the TSVs they write:
//   - Fig 9, soft constraints: TetriSched's all-SLO attainment is at least
//     TetriSched-NH's and Rayon/CS's at every estimate error; its best-effort
//     latency is below NH's, and NH's below Rayon/CS's, at every error; and at
//     +50 % NH's accepted-SLO attainment is below Rayon/CS's, the cross-over
//     the paper reports when jobs are over-estimated;
//   - Fig 10: global scheduling beats greedy and greedy beats Rayon/CS (ties
//     allowed) on all-SLO attainment at every estimate error;
//   - Fig 11: TetriSched's all-SLO attainment never falls as the plan-ahead
//     window grows.
//
// Every figure is a function of its seeds, so the check is exact; no
// wall-clock column is read.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("three figure sweeps")
	}
	dir := t.TempDir()
	SetTSVDir(dir)
	defer SetTSVDir("")
	for _, fig := range []func(io.Writer, Scale) error{Fig9, Fig10, Fig11} {
		if err := fig(io.Discard, Quick()); err != nil {
			t.Fatal(err)
		}
	}

	xs, slo := readTSV(t, filepath.Join(dir, "fig9a.tsv"))
	if len(xs) != 5 {
		t.Fatalf("Fig 9(a) has %d error points, want 5", len(xs))
	}
	for i, x := range xs {
		het, nh, cs := slo["TetriSched"][i], slo["TetriSched-NH"][i], slo["Rayon/CS"][i]
		if het < nh || het < cs {
			t.Errorf("Fig 9(a) at error %s%%: TetriSched %.1f, TetriSched-NH %.1f, Rayon/CS %.1f; want TetriSched at least both", x, het, nh, cs)
		}
	}
	xs, lat := readTSV(t, filepath.Join(dir, "fig9d.tsv"))
	for i, x := range xs {
		het, nh, cs := lat["TetriSched"][i], lat["TetriSched-NH"][i], lat["Rayon/CS"][i]
		if het >= nh || nh >= cs {
			t.Errorf("Fig 9(d) at error %s%%: BE latency TetriSched %.1f s, TetriSched-NH %.1f s, Rayon/CS %.1f s; want them rising in that order", x, het, nh, cs)
		}
	}
	xs, acc := readTSV(t, filepath.Join(dir, "fig9b.tsv"))
	if last := len(xs) - 1; xs[last] != "+50" || acc["TetriSched-NH"][last] >= acc["Rayon/CS"][last] {
		t.Errorf("Fig 9(b) at error %s%%: TetriSched-NH %.1f, Rayon/CS %.1f; want NH below Rayon/CS at +50",
			xs[last], acc["TetriSched-NH"][last], acc["Rayon/CS"][last])
	}

	xs, slo = readTSV(t, filepath.Join(dir, "fig10a.tsv"))
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
