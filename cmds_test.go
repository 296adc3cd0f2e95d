package tetrisched

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tetrisched/internal/trace"
)

// TestCommandLineTools smoke-tests each CLI end to end: build the binary,
// run a representative invocation, check the output.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess tools")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		return out
	}
	run := func(name string, args ...string) string {
		cmd := exec.Command(build(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	t.Run("strlc", func(t *testing.T) {
		out := run("strlc", "-nodes", "4", "-gpus", "2",
			"-e", "max(nCk({gpu}, k=2, start=0, dur=2, v=4), nCk({*}, k=2, start=0, dur=3, v=3))")
		for _, want := range []string{"parsed STRL", "partition groups", "objective=4", "grants:"} {
			if !strings.Contains(out, want) {
				t.Errorf("strlc output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("tetrisim", func(t *testing.T) {
		trace := filepath.Join(bin, "trace.json")
		out := run("tetrisim", "-cluster", "rc80", "-workload", "gsmix", "-jobs", "10",
			"-gantt", "-save-trace", trace)
		for _, want := range []string{"TetriSched", "SLO(all)", "legend:"} {
			if !strings.Contains(out, want) {
				t.Errorf("tetrisim output missing %q:\n%s", want, out)
			}
		}
		// Replay the saved trace under the baseline.
		out2 := run("tetrisim", "-load-trace", trace, "-sched", "cs")
		if !strings.Contains(out2, "Rayon/CS") || !strings.Contains(out2, "jobs=10") {
			t.Errorf("trace replay malformed:\n%s", out2)
		}
	})

	t.Run("experiments", func(t *testing.T) {
		out := run("experiments", "-table", "1")
		if !strings.Contains(out, "GS_HET") {
			t.Errorf("experiments -table 1 malformed:\n%s", out)
		}
	})

	// tetrisim -trace round-trip: the Chrome export must be well-formed
	// trace-event JSON with the scheduler's phase spans, and the JSONL mode
	// must be valid line-by-line.
	t.Run("tetrisim-exec-trace", func(t *testing.T) {
		chromeOut := filepath.Join(bin, "exec.json")
		out := run("tetrisim", "-cluster", "rc80", "-workload", "gshet", "-jobs", "12",
			"-trace", chromeOut)
		if !strings.Contains(out, "execution trace written") {
			t.Errorf("tetrisim -trace output missing confirmation:\n%s", out)
		}
		data, err := os.ReadFile(chromeOut)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := trace.DecodeChrome(data)
		if err != nil {
			t.Fatalf("-trace emitted malformed Chrome trace JSON: %v", err)
		}
		seen := map[string]bool{}
		tracks := map[string]bool{}
		for _, e := range doc.TraceEvents {
			seen[e.Name] = true
			if e.Ph == "M" && e.Name == "thread_name" {
				tracks[e.Args["name"].(string)] = true
			}
		}
		for _, want := range []string{"cycle", "generate", "compile", "solve", "launch", "submit"} {
			if !seen[want] {
				t.Errorf("chrome trace missing %q events (have %v)", want, seen)
			}
		}
		for _, want := range []string{"cycle", "strl", "solve", "place", "driver", "job"} {
			if !tracks[want] {
				t.Errorf("chrome trace missing %q track (have %v)", want, tracks)
			}
		}

		jsonlOut := filepath.Join(bin, "exec.jsonl")
		run("tetrisim", "-cluster", "rc80", "-workload", "gshet", "-jobs", "12",
			"-trace", jsonlOut)
		raw, err := os.ReadFile(jsonlOut)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) < 20 {
			t.Fatalf("jsonl trace suspiciously short: %d lines", len(lines))
		}
		for i, ln := range lines {
			var obj struct {
				Seq  *uint64 `json:"seq"`
				Kind string  `json:"kind"`
				Name string  `json:"name"`
			}
			if err := json.Unmarshal([]byte(ln), &obj); err != nil {
				t.Fatalf("jsonl line %d malformed: %v\n%s", i, err, ln)
			}
			if obj.Seq == nil || *obj.Seq != uint64(i) {
				t.Fatalf("jsonl line %d has seq %v, want %d (stream must be gapless)", i, obj.Seq, i)
			}
		}
	})

	// tetrischedd admission flag round-trip: -max-queue / -tenants /
	// -admission-log must all be documented in -h, honored by the running
	// daemon, and the admission log must survive a graceful shutdown.
	t.Run("tetrischedd-admission", func(t *testing.T) {
		daemon := build("tetrischedd")

		// -h documents the front-door flags.
		help, _ := exec.Command(daemon, "-h").CombinedOutput() // flag -h exits non-zero by design
		for _, flag := range []string{"-max-queue", "-admit-burst", "-tenants", "-admission-log"} {
			if !strings.Contains(string(help), flag) {
				t.Errorf("-h output missing %s:\n%s", flag, help)
			}
		}

		tenantsPath := filepath.Join(bin, "tenants.json")
		if err := os.WriteFile(tenantsPath, []byte(
			`[{"name":"gold","weight":10,"quota":-1},{"name":"blocked","weight":1,"quota":0}]`), 0o644); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(bin, "admission.ndjson")
		addr := freeAddr(t)
		cmd := exec.Command(daemon, "-listen", addr, "-nodes", "8", "-racks", "2",
			"-max-queue", "100", "-tenants", tenantsPath, "-admission-log", logPath)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		waitHTTP(t, "http://"+addr+"/v1/status")

		post := func(body string) *http.Response {
			resp, err := http.Post("http://"+addr+"/v1/submit", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}
		batch := func(tenant string, id0, n int) string {
			var sb strings.Builder
			sb.WriteByte('[')
			for i := 0; i < n; i++ {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(`{"id":` + strconv.Itoa(id0+i) + `,"tenant":"` + tenant +
					`","class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1}`)
			}
			sb.WriteByte(']')
			return sb.String()
		}
		if resp := post(batch("gold", 0, 5)); resp.StatusCode != http.StatusAccepted {
			t.Errorf("configured tenant batch = %d, want 202", resp.StatusCode)
		}
		if resp := post(batch("blocked", 100, 1)); resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("zero-quota tenant = %d, want 429", resp.StatusCode)
		} else if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After header")
		}
		// -max-queue 100 with 5 already queued: a batch of 96 cannot fit.
		if resp := post(batch("gold", 200, 96)); resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("over-capacity batch = %d, want 429", resp.StatusCode)
		}

		// /v1/status reflects the -tenants file.
		var st struct {
			Admission *struct {
				MaxQueue int `json:"max_queue"`
				Tenants  []struct {
					Name   string  `json:"name"`
					Weight float64 `json:"weight"`
				} `json:"tenants"`
			} `json:"admission"`
		}
		resp, err := http.Get("http://" + addr + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Admission == nil || st.Admission.MaxQueue != 100 {
			t.Fatalf("status does not reflect -max-queue: %+v", st.Admission)
		}
		foundGold := false
		for _, ten := range st.Admission.Tenants {
			if ten.Name == "gold" && ten.Weight == 10 {
				foundGold = true
			}
		}
		if !foundGold {
			t.Errorf("status does not reflect -tenants weights: %+v", st.Admission)
		}

		// Graceful shutdown flushes the admission log.
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("daemon did not exit cleanly: %v", err)
		}
		raw, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatalf("-admission-log file missing after shutdown: %v", err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 3 {
			t.Fatalf("admission log has %d records, want 3:\n%s", len(lines), raw)
		}
		outcomes := map[string]int{}
		for i, ln := range lines {
			var rec struct {
				Mode    string `json:"mode"`
				Tenant  string `json:"tenant"`
				Jobs    int    `json:"jobs"`
				Outcome string `json:"outcome"`
				Code    int    `json:"code"`
			}
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("admission log line %d malformed: %v\n%s", i, err, ln)
			}
			outcomes[rec.Outcome]++
		}
		if outcomes["accepted"] != 1 || outcomes["tenant_quota"] != 1 || outcomes["queue_full"] != 1 {
			t.Errorf("admission log outcomes = %v", outcomes)
		}
	})

	// tetrischedd: what a crash loses. A 202 from /v1/submit promises the batch
	// a place in an in-memory queue, not durability: a daemon killed before
	// the next /v1/cycle drains it comes back with an empty queue, nothing
	// pending, and no admission-log record of the batch, which sat in the
	// log's 32 KB buffer that only a graceful shutdown flushes. ROADMAP's
	// parked "Durable front door" is what would change that.
	t.Run("tetrischedd-crash", func(t *testing.T) {
		daemon := build("tetrischedd")
		logPath := filepath.Join(bin, "crash-admission.ndjson")
		addr := freeAddr(t)
		start := func() *exec.Cmd {
			cmd := exec.Command(daemon, "-listen", addr, "-nodes", "8", "-racks", "2", "-admission-log", logPath)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			waitHTTP(t, "http://"+addr+"/v1/status")
			return cmd
		}
		cmd := start()
		resp, err := http.Post("http://"+addr+"/v1/submit", "application/json", strings.NewReader(
			`[{"id":1,"class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1},`+
				`{"id":2,"class":"BE","type":"Unconstrained","k":1,"base_runtime":10,"slowdown":1}]`))
		if err != nil {
			cmd.Process.Kill()
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("batch = %d, want 202", resp.StatusCode)
		}
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
			t.Fatal(err)
		}
		_ = cmd.Wait() // its error is the SIGKILL

		cmd = start()
		defer cmd.Process.Kill()
		var st struct {
			Pending   int `json:"pending"`
			Admission struct {
				Queued int `json:"queued"`
			} `json:"admission"`
		}
		resp, err = http.Get("http://" + addr + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending != 0 || st.Admission.Queued != 0 {
			t.Errorf("after the restart: %d pending, %d queued; want the accepted batch gone", st.Pending, st.Admission.Queued)
		}
		if raw, err := os.ReadFile(logPath); err != nil || len(raw) != 0 {
			t.Errorf("admission log after the crash: %q (%v), want the file empty", raw, err)
		}
	})

	// tetrischedd: pprof served only on -debug-addr, and SIGTERM triggers a
	// clean graceful shutdown (exit status 0).
	t.Run("tetrischedd-daemon", func(t *testing.T) {
		mainAddr, debugAddr := freeAddr(t), freeAddr(t)
		cmd := exec.Command(build("tetrischedd"),
			"-listen", mainAddr, "-debug-addr", debugAddr, "-nodes", "8", "-racks", "2")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()

		waitHTTP(t, "http://"+mainAddr+"/v1/status")
		if code := getStatus(t, "http://"+debugAddr+"/debug/pprof/"); code != http.StatusOK {
			t.Errorf("pprof on debug addr = %d, want 200", code)
		}
		if code := getStatus(t, "http://"+mainAddr+"/debug/pprof/"); code == http.StatusOK {
			t.Errorf("pprof reachable on the main listener")
		}
		if code := getStatus(t, "http://"+mainAddr+"/metrics"); code != http.StatusOK {
			t.Errorf("daemon /metrics = %d, want 200", code)
		}
		if code := getStatus(t, "http://"+mainAddr+"/v1/trace"); code != http.StatusOK {
			t.Errorf("daemon /v1/trace = %d, want 200", code)
		}

		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon did not exit cleanly on SIGTERM: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("daemon did not shut down within 15s of SIGTERM")
		}
	})
}

// freeAddr reserves a loopback port for a subprocess listener.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitHTTP polls url until it answers (daemon startup).
func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", url)
}

// getStatus fetches url and returns the HTTP status code (0 on error).
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}
