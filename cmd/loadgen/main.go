// Command loadgen drives a tetrischedd front door with sustained batched
// job submissions and reports throughput, admission-latency percentiles
// (p50/p90/p99), and the backpressure (429) rate.
//
//	loadgen -url http://127.0.0.1:7140 -duration 5s -workers 16 -batch 64
//
// With -spawn, loadgen starts an in-process daemon on a loopback port and
// load-tests that, so a single command exercises the whole admission path
// with no external setup (this is what `make loadgen-smoke` runs):
//
//	loadgen -spawn -duration 2s -cycle-every 50ms -min-qps 1000 -max-5xx 0
//
// -rate switches from closed-loop (each worker keeps one request in flight)
// to open-loop (batches dispatched on a fixed jobs/sec schedule; overload
// surfaces as "missed" dispatches instead of client-side queueing).
//
// -min-qps and -max-5xx are exit-status gates for CI: the run fails (exit 1)
// if the accepted jobs/sec falls below -min-qps or more than -max-5xx
// requests answered 5xx. -bench additionally prints the result as a
// `go test -bench`-style line so it can be piped into cmd/benchjson.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/httpapi"
	"tetrisched/internal/loadgen"
)

func main() {
	var (
		url        = flag.String("url", "http://127.0.0.1:7140", "daemon base URL")
		spawn      = flag.Bool("spawn", false, "start an in-process daemon on a loopback port and target it")
		duration   = flag.Duration("duration", 5*time.Second, "run length")
		workers    = flag.Int("workers", 16, "concurrent in-flight requests")
		rate       = flag.Float64("rate", 0, "open-loop target in jobs/sec (0 = closed loop)")
		batch      = flag.Int("batch", 64, "jobs per submit request")
		tenants    = flag.String("tenants", "default", "comma-separated tenant names cycled across requests")
		maxJobs    = flag.Int64("max-jobs", 0, "stop after this many jobs (0 = run for -duration)")
		cycleEvery = flag.Duration("cycle-every", 0, "drive POST /v1/cycle at this period so the queue drains (0 = never)")
		maxQueue   = flag.Int("spawn-queue", 1<<16, "ingress queue bound for the -spawn daemon")
		minQPS     = flag.Float64("min-qps", 0, "fail (exit 1) if accepted jobs/sec is below this")
		max5xx     = flag.Int64("max-5xx", -1, "fail (exit 1) if more than this many requests answered 5xx (-1 = no gate)")
		bench      = flag.Bool("bench", false, "also print a go-bench-format line for cmd/benchjson")
	)
	flag.Parse()

	target := *url
	if *spawn {
		addr, shutdown, err := spawnDaemon(*maxQueue)
		if err != nil {
			log.Fatalf("loadgen: spawn: %v", err)
		}
		defer shutdown()
		target = "http://" + addr
		log.Printf("loadgen: spawned in-process daemon on %s", target)
	}

	cfg := loadgen.Config{
		BaseURL:    target,
		Workers:    *workers,
		Rate:       *rate,
		Batch:      *batch,
		Tenants:    strings.Split(*tenants, ","),
		MaxJobs:    *maxJobs,
		Duration:   *duration,
		CycleEvery: *cycleEvery,
	}
	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	fmt.Println(res)
	if *bench {
		// One go-bench-format line so the run lands in BENCH_milp.json via
		// `loadgen ... -bench | go run ./cmd/benchjson`.
		nsPerJob := float64(res.Elapsed.Nanoseconds()) / float64(max64(res.Jobs, 1))
		fmt.Printf("BenchmarkLoadgenCLI \t%d\t%.1f ns/op\t%.0f jobs/sec\t%d p50-ns\t%d p99-ns\t%.4f reject-rate\n",
			res.Jobs, nsPerJob, res.OfferedRate(), res.P50.Nanoseconds(), res.P99.Nanoseconds(), res.RejectRate())
	}

	failed := false
	if *minQPS > 0 && res.AcceptedRate() < *minQPS {
		fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: accepted %.0f jobs/sec < -min-qps %.0f\n", res.AcceptedRate(), *minQPS)
		failed = true
	}
	if *max5xx >= 0 && res.Err5xx > *max5xx {
		fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: %d requests answered 5xx > -max-5xx %d\n", res.Err5xx, *max5xx)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// spawnDaemon starts a small in-process tetrischedd on a loopback port and
// returns its address and a shutdown func.
func spawnDaemon(maxQueue int) (string, func(), error) {
	c := cluster.Racked(32, 4, 0)
	sched := core.New(c, core.Config{
		CyclePeriod:     4,
		PlanAhead:       96,
		SolverTimeLimit: 50 * time.Millisecond,
		Gap:             0.1,
	})
	api := httpapi.NewServer(sched, c.N()).
		SetAdmission(httpapi.AdmissionConfig{MaxQueue: maxQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: api.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
