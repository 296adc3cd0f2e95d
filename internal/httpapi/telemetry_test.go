package httpapi

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/sim"
	"tetrisched/internal/telemetry"
)

// telemetryDaemon is a daemon on which every metric family and every status
// block is populated: a sharded scheduler, one configured tenant, one job in
// through the front door and one cycle run.
func telemetryDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	c := cluster.RC80(true)
	srv := NewServer(core.New(c, core.Config{PlanAhead: 48, Shards: 2}), c.N()).
		SetAdmission(AdmissionConfig{Tenants: []TenantConfig{{Name: "a", Weight: 2, Quota: -1, Rate: 100, RateBurst: 100}}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if resp := postSubmit(t, ts.URL, batchBody("a", 0, 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	postCycle(t, ts.URL, 0)
	return ts
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// family is one metric of a /metrics exposition, as its # HELP and # TYPE
// lines declare it.
type family struct {
	name, kind, help string
	labelled         bool // its samples carry a label set
}

func scrapeFamilies(t *testing.T, base string) []family {
	t.Helper()
	var out []family
	help := ""
	sc := bufio.NewScanner(strings.NewReader(string(getBody(t, base+"/metrics"))))
	for sc.Scan() {
		line := sc.Text()
		switch f := strings.SplitN(line, " ", 4); {
		case strings.HasPrefix(line, "# HELP ") && len(f) == 4:
			help = f[3]
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			out = append(out, family{name: f[2], kind: f[3], help: help})
			help = ""
		case len(out) > 0 && strings.HasPrefix(line, out[len(out)-1].name+"{tenant="):
			out[len(out)-1].labelled = true
		}
	}
	return out
}

// statusKeys lists the keys of /v1/status: its top-level keys as they are,
// and those of its telemetry blocks as block.key, a tenant's under
// admission.tenants.
func statusKeys(t *testing.T, base string) []string {
	t.Helper()
	body := getBody(t, base+"/v1/status")
	var top map[string]any
	var st struct {
		Solver, Shard map[string]any
		Admission     map[string]any
	}
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	add := func(block string, obj map[string]any) {
		for k := range obj {
			keys = append(keys, block+"."+k)
		}
	}
	add("solver", st.Solver)
	add("shard", st.Shard)
	add("admission", st.Admission)
	tenants, _ := st.Admission["tenants"].([]any)
	if len(tenants) != 1 {
		t.Fatalf("admission.tenants = %v, want the one configured tenant", st.Admission["tenants"])
	}
	add("admission.tenants", tenants[0].(map[string]any))
	sort.Strings(keys)
	return keys
}

// TestTelemetryGolden pins what the daemon served before its telemetry was
// rendered from tables (testdata/telemetry.golden, taken at PR 22): every
// /metrics family with its type, every top-level key of /v1/status and every
// key of its solver, shard and admission blocks is still served. New names may join; a name in the
// golden list may not leave or change type. One was renamed on purpose:
// lp_dense_fallbacks became lp_unstable_factors when the dense basis engine
// was deleted and an unstable factor began to be retried in strict LU. Eight were
// removed on purpose: presolve_vars_fixed and presolve_rounds (with their
// /metrics families) left when presolve stopped fixing columns and became one
// pass, so neither could move any more; presolve_rows_dropped,
// presolve_cliques_merged and presolve_millis left with presolve itself, which
// earned no node and no proven solve on the paper's traffic; cut_rounds,
// cover_cuts and clique_cuts (with their /metrics families) left with the root
// cutting planes, which cost the paper's RC80 mixes more search than they
// saved.
func TestTelemetryGolden(t *testing.T) {
	ts := telemetryDaemon(t)
	served := make(map[string]bool)
	for _, f := range scrapeFamilies(t, ts.URL) {
		served["metric "+f.name+" "+f.kind] = true
	}
	for _, k := range statusKeys(t, ts.URL) {
		served["status "+k] = true
	}
	golden, err := os.ReadFile("testdata/telemetry.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if !served[want] {
			t.Errorf("no longer served: %s", want)
		}
		delete(served, want)
	}
	for extra := range served {
		t.Logf("served, not in the golden list: %s", extra)
	}
}

// blockedSched is a sim.Scheduler whose Cycle waits to be released: a solve
// that takes as long as the test needs it to.
type blockedSched struct {
	fakeSched
	entered, release chan struct{}
}

func (b *blockedSched) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	close(b.entered)
	<-b.release
	return sim.CycleResult{}
}

// TestScrapeDoesNotWaitForCycle: /v1/status and /metrics answer while a
// /v1/cycle is inside the scheduler, with the state as of the last publish.
func TestScrapeDoesNotWaitForCycle(t *testing.T) {
	sched := &blockedSched{entered: make(chan struct{}), release: make(chan struct{})}
	ts := httptest.NewServer(NewServer(sched, 16).Handler())
	defer ts.Close()

	cycled := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/cycle", "application/json", strings.NewReader(`{"now":0,"free":[]}`))
		if err != nil {
			cycled <- 0
			return
		}
		resp.Body.Close()
		cycled <- resp.StatusCode
	}()
	<-sched.entered

	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/v1/status", "/metrics"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s during a cycle: %v", path, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s during a cycle = %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "tetrisched_cycles_total 0\n") {
			t.Errorf("/metrics during the first cycle does not read 0 cycles:\n%s", body)
		}
	}
	close(sched.release)
	if code := <-cycled; code != http.StatusOK {
		t.Fatalf("cycle = %d", code)
	}
	if body := getBody(t, ts.URL+"/metrics"); !strings.Contains(string(body), "tetrisched_cycles_total 1\n") {
		t.Errorf("/metrics after the cycle does not read 1 cycle:\n%s", body)
	}
}

// panicSched is a sim.Scheduler whose Cycle panics, as a scheduler bug would.
type panicSched struct{ fakeSched }

func (p *panicSched) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	panic("scheduler bug")
}

// TestHandlerPanicAnswers500: a handler that panics answers 500 and counts
// one handler panic, in /v1/status and /metrics alike, and the daemon goes on
// serving: the next submit and status requests succeed.
func TestHandlerPanicAnswers500(t *testing.T) {
	sched := &panicSched{fakeSched: *newFakeSched()}
	ts := httptest.NewServer(NewServer(sched, 16).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/cycle", "application/json", strings.NewReader(`{"now":0,"free":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("cycle whose scheduler panics = %d, want 500", resp.StatusCode)
	}
	if resp := postSubmit(t, ts.URL, batchBody("a", 1, 1)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after the panic = %d, want 202", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/status"), &st); err != nil {
		t.Fatal(err)
	}
	if st.HandlerPanics != 1 || st.Admission == nil || st.Admission.Queued != 1 {
		t.Errorf("status after the panic: handler_panics %d, admission %+v; want 1 panic and the submitted job queued", st.HandlerPanics, st.Admission)
	}
	if body := getBody(t, ts.URL+"/metrics"); !strings.Contains(string(body), "tetrisched_handler_panics_total 1\n") {
		t.Errorf("/metrics does not read 1 handler panic:\n%s", body)
	}
}

// checkRows holds one table to the rules every row must keep: something to
// render under and a help for it, keys distinct within the table and
// Prometheus names across all of them (seen), counters — and only counters —
// named _total. Where /v1/status shows the table's struct through its JSON
// tags (wire is a value of it), a row's key must be one of those tags.
func checkRows[T any](t *testing.T, table string, rows []telemetry.Metric[T], seen map[string]string, wire any) {
	t.Helper()
	tags := make(map[string]bool)
	if wire != nil {
		for i, typ := 0, reflect.TypeOf(wire); i < typ.NumField(); i++ {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags[tag] = true
		}
	}
	keys := make(map[string]bool)
	for i, m := range rows {
		id := fmt.Sprintf("%s[%d] (%s %s)", table, i, m.Key, m.Name)
		if m.Key == "" && m.Name == "" {
			t.Errorf("%s has neither a key nor a Prometheus name", id)
		}
		if m.Help == "" || m.Get == nil {
			t.Errorf("%s has no help or no getter", id)
		}
		if m.Key != "" {
			if keys[m.Key] {
				t.Errorf("%s repeats a key of its table", id)
			}
			keys[m.Key] = true
			if wire != nil && !tags[m.Key] {
				t.Errorf("%s: %T has no field tagged %q", id, wire, m.Key)
			}
		}
		if m.Name == "" {
			continue
		}
		if other, dup := seen[m.Name]; dup {
			t.Errorf("%s repeats a Prometheus name of %s", id, other)
		}
		seen[m.Name] = table
		if !strings.HasPrefix(m.Name, "tetrisched_") {
			t.Errorf("%s is outside the tetrisched_ namespace", id)
		}
		switch total := strings.HasSuffix(m.Name, "_total"); m.Kind {
		case "counter":
			if !total {
				t.Errorf("%s is a counter not named _total", id)
			}
		case "gauge", "histogram":
			if total {
				t.Errorf("%s is named _total and is a %s", id, m.Kind)
			}
		default:
			t.Errorf("%s has kind %q", id, m.Kind)
		}
	}
}

func TestTelemetryTables(t *testing.T) {
	seen := make(map[string]string)
	checkRows(t, "core.SolverMetrics", core.SolverMetrics, seen, nil)
	checkRows(t, "core.ShardMetrics", core.ShardMetrics, seen, nil)
	checkRows(t, "serverMetrics", serverMetrics, seen, StatusResponse{})
	checkRows(t, "admissionMetrics", admissionMetrics, seen, AdmissionStatusMsg{})
	checkRows(t, "tenantMetrics", tenantMetrics, seen, TenantStatusMsg{})

	// Every row is served: the fully populated daemon's /metrics has exactly
	// the names the tables declare.
	for _, f := range scrapeFamilies(t, telemetryDaemon(t).URL) {
		if _, ok := seen[f.name]; !ok {
			t.Errorf("/metrics serves %s, which no table declares", f.name)
		}
		delete(seen, f.name)
	}
	for name, table := range seen {
		t.Errorf("%s declares %s and /metrics does not serve it", table, name)
	}
}

var update = flag.Bool("update", false, "rewrite the generated tables of docs/OBSERVABILITY.md from what the daemon serves")

const (
	obsDoc      = "../../docs/OBSERVABILITY.md"
	tableBegin  = "<!-- generated from the telemetry tables: go test ./internal/httpapi -run ObservabilityDoc -update -->\n"
	tableEnd    = "<!-- end generated -->\n"
	statusBegin = "| `GET /v1/status` |"
)

// TestObservabilityDoc holds docs/OBSERVABILITY.md to what the daemon serves:
// its /metrics reference table is one row per served family (name, type and
// the row's own help), its /v1/status row names every served key, and no
// tetrisched_* name anywhere under docs/ is one the daemon does not serve.
// Run with -update after adding a row.
func TestObservabilityDoc(t *testing.T) {
	ts := telemetryDaemon(t)
	families := scrapeFamilies(t, ts.URL)
	var table strings.Builder
	table.WriteString("| Metric | Type | Meaning |\n|--------|------|---------|\n")
	for _, f := range families {
		name := f.name
		if f.labelled {
			name += "{tenant=…}"
		}
		fmt.Fprintf(&table, "| `%s` | %s | %s |\n", name, f.kind, f.help)
	}
	blocks := make(map[string][]string)
	var top []string // described by hand in the row below
	for _, k := range statusKeys(t, ts.URL) {
		i := strings.LastIndex(k, ".")
		if i < 0 {
			top = append(top, k)
			continue
		}
		blocks[k[:i]] = append(blocks[k[:i]], "`"+k[i+1:]+"`")
	}
	list := func(block string) string { return strings.Join(blocks[block], ", ") }
	status := statusBegin + " `scheduler` name, `pending` and `running` job counts, `universe`, `cycles`," +
		" `handler_panics` (requests answered 500 because their handler panicked; the daemon serves on)," +
		" `reservations_admitted` and `reservations_rejected` (the drain's Rayon verdicts on SLO jobs);" +
		" the `solver` block, cumulative solver telemetry (SOLVER.md; absent when the scheduler exposes none): " + list("solver") +
		"; the `shard` block (sharded mode only; SHARDING.md): " + list("shard") +
		"; the `admission` block: " + list("admission") + ", each of `tenants` with " + list("admission.tenants") + " |\n"
	for _, k := range top {
		if !strings.Contains(status, "`"+k+"`") {
			t.Errorf("the /v1/status row does not name the top-level key %s", k)
		}
	}

	raw, err := os.ReadFile(obsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	b, e := strings.Index(doc, tableBegin), strings.Index(doc, tableEnd)
	sb := strings.Index(doc, statusBegin)
	if b < 0 || e < b || sb < 0 {
		t.Fatalf("%s has lost its generated-table markers or its /v1/status row", obsDoc)
	}
	se := sb + strings.Index(doc[sb:], "\n") + 1
	want := doc[:sb] + status + doc[se:b+len(tableBegin)] + table.String() + doc[e:]
	if *update {
		if err := os.WriteFile(obsDoc, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if doc != want {
		t.Errorf("%s has drifted from what the daemon serves; run go test ./internal/httpapi -run ObservabilityDoc -update", obsDoc)
	}

	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs found: %v", err)
	}
	// A name cut short by a wildcard (tetrisched_shard_*) must begin a served one.
	metricName := regexp.MustCompile(`tetrisched_[a-z0-9_]+`)
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range metricName.FindAllString(string(text), -1) {
			if !slices.ContainsFunc(families, func(f family) bool { return strings.HasPrefix(f.name, tok) }) {
				t.Errorf("%s names %s, which the daemon does not serve", path, tok)
			}
		}
	}
}
