// Command tetrischedd runs the TetriSched scheduler as a standalone daemon
// behind an HTTP/JSON interface — the role the TetriSched daemon plays
// behind Apache Thrift in the paper's YARN integration (§3.3). A resource
// manager (or the bundled simulation client) submits jobs, triggers
// scheduling cycles with the current free-node set, and signals completions;
// the daemon answers with allocation decisions.
//
//	tetrischedd -listen :7140 -nodes 80 -racks 8 -gpu-racks 2 -plan-ahead 96
//
// Endpoints:
//
//	POST /v1/submit       submit jobs         [{id, tenant, class, type, k, ...}]
//	POST /v1/cycle        run one cycle       {now, free:[ids]} → decisions
//	POST /v1/completions  signal completion   {job_id, now}
//	GET  /v1/status       daemon state incl. cumulative solver telemetry
//	GET  /v1/trace        Chrome trace-event snapshot of the trace ring
//	GET  /metrics         the same telemetry tables as Prometheus text
//
// /v1/status and /metrics render a snapshot published after each state change,
// so a scrape never waits behind a solve; the exit log prints the solver table.
//
// The /v1/submit front door admits into a bounded ingress queue (-max-queue)
// drained into the scheduler by a weighted-fair dequeue at each cycle
// (-admit-burst jobs per cycle). Per-tenant weights and quotas come from the
// -tenants JSON file, rereadable at runtime with SIGHUP (accrued fair-share
// and rate-limit state survives the reload); submissions the queue cannot
// take are refused with
// 429 + Retry-After rather than buffered. -admission-log appends one NDJSON
// record per admission decision for offline audit.
//
// With -debug-addr set, net/http/pprof is served on that address (and only
// there — the main listener never exposes it). The daemon shuts down
// gracefully on SIGINT/SIGTERM: in-flight cycle requests complete before
// the process exits. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/httpapi"
	"tetrisched/internal/telemetry"
	"tetrisched/internal/trace"
)

func main() {
	var (
		listen    = flag.String("listen", ":7140", "listen address")
		nodes     = flag.Int("nodes", 80, "cluster size")
		racks     = flag.Int("racks", 8, "rack count (nodes split evenly)")
		gpuRacks  = flag.Int("gpu-racks", 2, "leading racks labeled gpu=true")
		planAhead = flag.Int64("plan-ahead", 96, "plan-ahead window in seconds")
		cycle     = flag.Int64("cycle", 4, "cycle period in seconds")
		greedy    = flag.Bool("greedy", false, "TetriSched-NG (greedy per-job)")
		noHet     = flag.Bool("no-het", false, "TetriSched-NH (no soft constraints)")
		limit     = flag.Duration("solver-limit", 300*time.Millisecond, "per-solve MILP work budget, in seconds of a reference machine's LP work (a count, not a clock)")
		gap       = flag.Float64("gap", 0.1, "relative MIP gap")
		noFECache = flag.Bool("no-compile-cache", false, "disable the cross-cycle caches: expressions, compiled classes, replayed sub-solutions (bisection switch)")
		shards    = flag.Int("shards", 0, "sharded control plane: concurrent per-shard planners with optimistic commit (0 = monolithic)")
		traceRing = flag.Int("trace-ring", 16384, "trace ring size in events served by /v1/trace (0 disables tracing)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = pprof disabled)")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		maxQueue  = flag.Int("max-queue", 65536, "bounded ingress queue for POST /v1/submit; overflow answers 429 + Retry-After")
		burst     = flag.Int("admit-burst", 1024, "max jobs the weighted-fair dequeue admits to the scheduler per cycle")
		tenants   = flag.String("tenants", "", "JSON file of per-tenant admission config: [{\"name\",\"weight\",\"quota\",\"rate\",\"burst\"},...] (quota 0 = lockout, <0 = unlimited; rate in jobs/sec, <=0 = unlimited)")
		admitLog  = flag.String("admission-log", "", "append NDJSON admission-decision records to this file (empty = disabled)")
	)
	flag.Parse()

	if *racks <= 0 {
		log.Fatalf("tetrischedd: -racks %d must be positive", *racks)
	}
	c := cluster.Racked(*nodes, *racks, *gpuRacks)

	var tr *trace.Tracer
	if *traceRing > 0 {
		tr = trace.New(*traceRing)
	}
	sched := core.New(c, core.Config{
		CyclePeriod:         *cycle,
		PlanAhead:           *planAhead,
		Greedy:              *greedy,
		NoHet:               *noHet,
		SolverTimeLimit:     *limit,
		Gap:                 *gap,
		DisableCompileCache: *noFECache,
		Shards:              *shards,
		Tracer:              tr,
	})
	admCfg := httpapi.AdmissionConfig{MaxQueue: *maxQueue, Burst: *burst}
	if *tenants != "" {
		buf, err := os.ReadFile(*tenants)
		if err != nil {
			log.Fatalf("tetrischedd: -tenants: %v", err)
		}
		if err := json.Unmarshal(buf, &admCfg.Tenants); err != nil {
			log.Fatalf("tetrischedd: -tenants %s: %v", *tenants, err)
		}
		log.Printf("tetrischedd: %d tenants configured from %s", len(admCfg.Tenants), *tenants)
	}
	api := httpapi.NewServer(sched, c.N()).SetTracer(tr).SetAdmission(admCfg)
	if *tenants != "" {
		// SIGHUP rereads -tenants and applies it live: limits move, but
		// queued jobs, fair-share state, and token balances survive.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				buf, err := os.ReadFile(*tenants)
				if err != nil {
					log.Printf("tetrischedd: -tenants reload: %v", err)
					continue
				}
				var tcs []httpapi.TenantConfig
				if err := json.Unmarshal(buf, &tcs); err != nil {
					log.Printf("tetrischedd: -tenants reload %s: %v", *tenants, err)
					continue
				}
				api.ReconfigureTenants(tcs)
				log.Printf("tetrischedd: reloaded %d tenants from %s", len(tcs), *tenants)
			}
		}()
	}
	if *admitLog != "" {
		f, err := os.OpenFile(*admitLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("tetrischedd: -admission-log: %v", err)
		}
		defer f.Close()
		api.SetAdmissionLog(f)
		defer api.FlushAdmissionLog()
	}
	srv := newServer(*listen, api.Handler())

	if *debugAddr != "" {
		go func() {
			log.Printf("tetrischedd: pprof on %s/debug/pprof/", *debugAddr)
			// DefaultServeMux carries the pprof handlers; the main listener
			// uses its own mux and never exposes them.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("tetrischedd: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("tetrischedd: %s on %d nodes (%d racks, %d gpu), listening on %s",
		sched.Name(), c.N(), *racks, *gpuRacks, *listen)

	select {
	case err := <-errc:
		log.Fatalf("tetrischedd: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		log.Printf("tetrischedd: signal received, draining in-flight requests (max %v)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("tetrischedd: shutdown: %v", err)
		}
		for _, line := range telemetry.Lines(core.SolverMetrics, &sched.Stats) {
			log.Printf("tetrischedd: bye: %s", line)
		}
	}
}

// The main listener's connection deadlines. A client that trickles its headers
// or body, or never reads its response, holds a connection and a goroutine
// only this long. A request's body is read and its response written inside
// two minutes: far above a cycle (its solves' work is bounded by -solver-limit)
// or a 16 MB batch on loopback.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newServer is the daemon's HTTP server on addr, with the deadlines above.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}
