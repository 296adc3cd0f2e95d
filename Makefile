# TetriSched-Go build targets. Everything is plain `go` underneath; the
# Makefile just names the common invocations.

GO ?= go

.PHONY: all verify build vet test test-short test-shuffle race bench bench-all bench-smoke benchmark-quick alloc-ceiling fuzz-smoke loadgen-smoke shard-smoke repeat-check same-schedules update-same-schedules same-schedules-run cover traffic-cover experiments experiments-quick examples clean

all: build vet test race

# Tier-1 verify chain (see ROADMAP.md).
verify: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Order-independence pass: the full suite in a randomized test order, so
# cross-test state leaks (shared schedulers, package-level caches) surface in
# CI instead of on a developer's machine.
test-shuffle:
	$(GO) test -shuffle=on ./...

# Race-detector pass; required because solves share mutable state: the parts
# of a decomposed solve run concurrently (SolveEach, over one WorkspaceList).
# Each part's tree search is one serial loop.
race:
	$(GO) test -race ./...

# Tracked benchmarks: the Fig 12-style batched solves, the full scheduler
# cycle, and the HTTP front door under load (cmd/loadgen's code path), 6
# repetitions each, summarized into BENCH_milp.json so the perf trajectory is
# diffable across commits. Override BENCHTIME (per-repetition budget) to trade
# precision for wall clock. ns/op compares only between runs on one machine;
# nothing gates on it (CI's perf guard is alloc-ceiling, repeat-check and
# same-schedules' RC80 tree counts).
#
# The per-layer benchmarks (generate, compile, decompose, fingerprint,
# partition, root LP on one fixed captured GS HET batch; tree search on one
# resident block, in internal/milp because the block is a test fixture there)
# are the ones to read for memory: their B/op and allocs/op repeat exactly.
BENCHTIME ?= 1s
BENCHES = BenchmarkBatchedSolve|BenchmarkSchedulerCycle|BenchmarkShardedCycle|BenchmarkCycleFrontEnd|BenchmarkLoadgen|BenchmarkGenerate|BenchmarkCompileBatch|BenchmarkDecompose|BenchmarkFingerprint|BenchmarkPartition|BenchmarkRootLP|BenchmarkTreeSearch
BENCHPKGS = . ./internal/milp
bench:
	$(GO) test -run='^$$' -bench='$(BENCHES)' -benchmem -count=6 -benchtime=$(BENCHTIME) $(BENCHPKGS) \
		| $(GO) run ./cmd/benchjson -o BENCH_milp.json

# Every benchmark in the repo (reduced-scale paper tables/figures included).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Bench-rot smoke: run every benchmark exactly once so benchmark code cannot
# silently stop compiling or start crashing. Fast enough for CI.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Scoreboard smoke: every workload of the BENCHMARK.json harness at the tests'
# scale (about a second each), untraced and traced, with the oracle and the
# schedule-hash checks on; exits non-zero on any failed operation. The full
# scoreboard is `go run ./benchmark` (benchmark/README.md); wired into CI.
benchmark-quick:
	$(GO) run ./benchmark -quick

# Allocation guard. alloc_kb_per_job_cycle repeats to the third digit or
# better for a seed on the virtual-time workloads, so one round each of the
# paper's trace, of its sharded run (many sub-solves a cycle) and of the two
# resident workloads (cache-hitting and solver-bound), at seed 1, is checked
# against a ceiling 10 % above what the commit that last lowered it measured:
# for all four, the commit that took the names out of the MILP model (a
# variable is 32 pointer-free bytes): 2.020 KB, 0.795 KB, 0.0731 KB and
# 0.1833 KB (CHANGES.md has each commit).
# Raise a ceiling only with the reason in CHANGES.md.
ALLOC_CEILINGS = trace_gshet:2.22 trace_gshet_shards4:0.87 resident_churn1:0.080 resident_churn50:0.20
alloc-ceiling:
	@for wc in $(ALLOC_CEILINGS); do \
		w=$${wc%%:*}; ceiling=$${wc##*:}; \
		got=$$($(GO) run ./benchmark -workload $$w -trace 0 -seed 1 -seconds 0 \
			| sed -n 's/.*"alloc_kb_per_job_cycle":{"value":\([0-9.e+-]*\).*/\1/p' | tail -n 1); \
		if [ -z "$$got" ]; then echo "alloc-ceiling: $$w printed no alloc_kb_per_job_cycle"; exit 1; fi; \
		echo "alloc-ceiling: $$w alloc_kb_per_job_cycle $$got KB, ceiling $$ceiling KB"; \
		awk -v got="$$got" -v ceiling="$$ceiling" 'BEGIN { exit !(got <= ceiling) }' \
			|| { echo "alloc-ceiling: $$w is over its ceiling"; exit 1; }; \
	done

# Fuzz smoke: each native fuzz target past its committed seed corpus
# (testdata/fuzz of its package) for 15 s; `go test` alone replays the corpora.
# FuzzSolveEachMatchesSolve decodes small packing MILPs and solves them on one
# WorkspaceList into lent Solutions, against fresh package-level solves and
# brute force. FuzzClassTableMatchesUncached drives a cached scheduler and a
# DisableCompileCache twin through arrivals, finishes, failures, drops and
# idle nodes withheld from the free set on a small cluster and compares their
# decisions every cycle. FuzzWithheldNodesFreeTheQueue withholds a fuzzed set
# of nodes from cycles with no arrival and no completion: while a pending job
# could start now on the offered nodes, some job must launch within horizon + 2
# cycles. FuzzClassCompileMatchesBatch runs randomClassInstance from a fuzzed
# seed through batchChecker: each cycle's coupling classes compiled alone give
# the whole batch's component fingerprints.
# FuzzParseRoundTrip feeds strl.Parse arbitrary text: whatever it accepts must
# print to text that parses again and prints identically. FuzzPlanMatchesMapCalendar
# drives rayon's dense calendar and the map one it replaced through the same
# Admit/Release/Forget/query sequence and compares every answer.
# FuzzRepriceMatchesGenerate carries one job's STRL request through a sequence
# of cycles by strlgen's Reprice alone and compares it, every cycle, with the
# request GenerateTTL makes afresh. FuzzSubmitDecoders sends arbitrary bodies
# to POST /v1/submit, which reads every body as a JSON batch: no 5xx, no
# panic, and the queue gains exactly what the response calls accepted.
# FuzzSubmitCycle posts an arbitrary batch from one tenant to a daemon over a
# real core.Scheduler on a small racked cluster and runs one /v1/cycle: the
# submit answers 202 or 4xx, the cycle 200, and every decision launches an
# admitted job on distinct free nodes at one of its widths. FuzzLUMatchesDense drives the LU basis engine, threshold
# and strict, through chains of eta updates and refactorizations on the
# standard form of small decoded models, against the dense reference inverse:
# FTRAN and BTRAN agree within 1e-7 of their scale after every step.
# Wired into CI.
fuzz-smoke:
	$(GO) test ./internal/milp -run '^$$' -fuzz '^FuzzSolveEachMatchesSolve$$' -fuzztime 15s
	$(GO) test ./internal/milp -run '^$$' -fuzz '^FuzzLUMatchesDense$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzClassTableMatchesUncached$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzWithheldNodesFreeTheQueue$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzClassCompileMatchesBatch$$' -fuzztime 15s
	$(GO) test ./internal/strl -run '^$$' -fuzz '^FuzzParseRoundTrip$$' -fuzztime 15s
	$(GO) test ./internal/rayon -run '^$$' -fuzz '^FuzzPlanMatchesMapCalendar$$' -fuzztime 15s
	$(GO) test ./internal/strlgen -run '^$$' -fuzz '^FuzzRepriceMatchesGenerate$$' -fuzztime 15s
	$(GO) test ./internal/httpapi -run '^$$' -fuzz '^FuzzSubmitDecoders$$' -fuzztime 15s
	$(GO) test ./internal/httpapi -run '^$$' -fuzz '^FuzzSubmitCycle$$' -fuzztime 15s

# Front-door smoke: cmd/loadgen spawns an in-process daemon and fires a short
# closed-loop burst at POST /v1/submit while cycles drain the queue. Gates on
# nonzero accepted throughput and zero 5xx responses; wired into CI.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -spawn -duration 2s -workers 8 -cycle-every 50ms -min-qps 100 -max-5xx 0

# Sharded control-plane smoke: a 4-shard tetrisim run end to end (concurrent
# per-shard planners, optimistic commit, gang arbitrator) plus the
# commit-time conflict-path tests under the race detector; wired into CI.
shard-smoke:
	$(GO) run ./cmd/tetrisim -cluster rc256het -workload gshet -jobs 120 -shards 4 -v | tail -n 6
	$(GO) test -race -count=1 -run 'Shard|RateLimit' ./...

# Repeatability smoke: a search the work budget cuts off is a function of its
# inputs, not of the machine's speed or load. RC80 GS HET at 1.3x load with a
# 5 ms budget (150 units of LP work; 22 sub-solves end unproven) runs at
# GOMAXPROCS=1, then at GOMAXPROCS=2 beside a CPU hog. The per-job outcome
# lines, the SLO line and the bb_nodes/lp_iterations/unproven counters must
# match, and some solve must have been cut off. Wired into CI.
REPEATDIR ?= .repeat
REPEAT_FLAGS = -cluster rc80 -workload gshet -jobs 60 -util 1.3 -solver-limit 5ms -v
repeat-check:
	rm -rf $(REPEATDIR) && mkdir -p $(REPEATDIR)
	$(GO) build -o $(REPEATDIR)/tetrisim ./cmd/tetrisim
	GOMAXPROCS=1 $(REPEATDIR)/tetrisim $(REPEAT_FLAGS) > $(REPEATDIR)/alone.txt
	yes > /dev/null & hog=$$!; \
		GOMAXPROCS=2 $(REPEATDIR)/tetrisim $(REPEAT_FLAGS) > $(REPEATDIR)/loaded.txt; st=$$?; \
		kill $$hog; exit $$st
	@for f in alone loaded; do \
		{ grep -E '^ *[0-9]+ |SLO\(all\)' $(REPEATDIR)/$$f.txt; \
		  grep -oE '(bb_nodes|lp_iterations|unproven)=[0-9]+' $(REPEATDIR)/$$f.txt; } > $(REPEATDIR)/$$f.key; \
	done
	@diff $(REPEATDIR)/alone.key $(REPEATDIR)/loaded.key > /dev/null \
		|| { echo "repeat-check: the loaded run scheduled differently:"; diff $(REPEATDIR)/alone.key $(REPEATDIR)/loaded.key | head -n 20; exit 1; }
	@grep -q '^unproven=[1-9]' $(REPEATDIR)/alone.key \
		|| { echo "repeat-check: no solve ended unproven, so nothing was cut off"; exit 1; }
	@echo "repeat-check: identical at GOMAXPROCS=1 and at GOMAXPROCS=2 beside a CPU hog:" \
		$$(grep -E '^(bb_nodes|lp_iterations|unproven)=' $(REPEATDIR)/alone.key)

# Same schedules: every schedule the repo pins exactly, in one committed file.
# same-schedules.golden holds the `hash` line of `go run ./benchmark -workload
# W -trace 0 -seconds 0 -seed S` for the four virtual-time workloads at seeds
# 1-3, the 22 TSVs of `experiments -quick -all -tsv` (Figs 6-11, no
# wall-clock column), repeat-check's counts line, and the SLO line and solver
# counters of an RC80 GS HET run at the default budget: the one pinned run
# whose solves branch (about 14 000 nodes, some of them cut off by the work
# budget), so it pins the tree search. All of them are exact on
# any machine, so a change that claims not to move a schedule leaves the file
# as it is; one that moves a schedule regenerates it with
# `make update-same-schedules` in the same commit and names the moved lines in
# CHANGES.md. About a minute on two vCPUs. Wired into CI.
SAMEDIR ?= .same
SAME_WORKLOADS = trace_gshet trace_gshet_shards4 resident_churn1 resident_churn50
SAME_SEEDS = 1 2 3
SAME_TREE_FLAGS = -cluster rc80 -workload gshet -jobs 150 -v
same-schedules-run: repeat-check
	rm -rf $(SAMEDIR) && mkdir -p $(SAMEDIR)/tsv
	$(GO) build -o $(SAMEDIR)/benchmark ./benchmark
	$(GO) build -o $(SAMEDIR)/experiments ./cmd/experiments
	$(SAMEDIR)/experiments -quick -all -tsv $(SAMEDIR)/tsv > $(SAMEDIR)/experiments.log 2>&1
	$(REPEATDIR)/tetrisim $(SAME_TREE_FLAGS) > $(SAMEDIR)/tree.log
	@set -e; { \
		echo "# hash of: go run ./benchmark -workload W -trace 0 -seconds 0 -seed S"; \
		for w in $(SAME_WORKLOADS); do for s in $(SAME_SEEDS); do \
			$(SAMEDIR)/benchmark -workload $$w -trace 0 -seconds 0 -seed $$s > $(SAMEDIR)/run.log 2>&1; \
			echo "$$w seed $$s hash $$(sed -n 's/^hash //p' $(SAMEDIR)/run.log | tail -n 1)"; \
		done; done; \
		echo "# make repeat-check counts"; \
		grep -E '^(bb_nodes|lp_iterations|unproven)=' $(REPEATDIR)/alone.key | paste -sd ' ' -; \
		echo "# tetrisim $(SAME_TREE_FLAGS): SLO and BE line, solver counters"; \
		grep -E 'SLO\(all\)' $(SAMEDIR)/tree.log; \
		grep -oE '(bb_nodes|lp_iterations|lp_factorizations|unproven)=[0-9]+' $(SAMEDIR)/tree.log | paste -sd ' ' -; \
		for f in $$(cd $(SAMEDIR)/tsv && LC_ALL=C ls); do \
			echo "# experiments -quick -all -tsv: $$f"; cat $(SAMEDIR)/tsv/$$f; \
		done; \
	} > $(SAMEDIR)/same-schedules.txt

same-schedules: same-schedules-run
	@diff -u same-schedules.golden $(SAMEDIR)/same-schedules.txt > $(SAMEDIR)/golden.diff \
		|| { echo "same-schedules: a schedule moved (regenerate with make update-same-schedules and say why in CHANGES.md):"; \
			head -n 60 $(SAMEDIR)/golden.diff; exit 1; }
	@echo "same-schedules: $$(grep -c ' seed [0-9]* hash ' same-schedules.golden) hashes, $$(grep -c '^# experiments' same-schedules.golden) TSVs, the repeat-check counts and the RC80 tree counts match same-schedules.golden"

update-same-schedules: same-schedules-run
	cp $(SAMEDIR)/same-schedules.txt same-schedules.golden

cover:
	$(GO) test -cover ./internal/...

# Traffic coverage: which production code the real traffic runs, as opposed to
# what the unit tests reach. Builds ./benchmark and ./cmd/tetrisim with plain
# `go build -cover` (it instruments every package of the main module; with
# -coverpkg=./internal/... Go 1.24 wrote no counters), runs the five scoreboard
# workloads for a second each, untraced and traced, then RC80 and RC256 under
# every mix and every scheduler variant at 150 jobs, plus a sharded run and
# ±50 % runtime-estimate error, and prints every function of internal/milp,
# compiler, core, strlgen, rayon, sim, shard and workload that none of it
# entered. It fails when one of them
# is not on traffic-cover.allow, which names for each the test that enters it
# or the reason it stays, and notes entries the traffic now enters. About 80 s
# to 3 min, so it is not in CI; the verify skill makes it a step of every
# simplification.
COVERDIR ?= .cover
traffic-cover:
	rm -rf $(COVERDIR) && mkdir -p $(COVERDIR)/data
	$(GO) build -cover -o $(COVERDIR)/benchmark ./benchmark
	$(GO) build -cover -o $(COVERDIR)/tetrisim ./cmd/tetrisim
	GOCOVERDIR=$(abspath $(COVERDIR))/data $(COVERDIR)/benchmark -seconds 1 > $(COVERDIR)/benchmark.log
	@set -e; for c in rc80 rc256; do for w in grslo grmix gsmix gshet; do for s in tetrisched nh ng np; do \
		GOCOVERDIR=$(abspath $(COVERDIR))/data $(COVERDIR)/tetrisim -cluster $$c -workload $$w -sched $$s -jobs 150 > /dev/null; \
	done; done; done
	GOCOVERDIR=$(abspath $(COVERDIR))/data $(COVERDIR)/tetrisim -cluster rc80 -workload gshet -jobs 150 -shards 4 > /dev/null
	GOCOVERDIR=$(abspath $(COVERDIR))/data $(COVERDIR)/tetrisim -cluster rc80 -workload gsmix -jobs 150 -err 50 > /dev/null
	GOCOVERDIR=$(abspath $(COVERDIR))/data $(COVERDIR)/tetrisim -cluster rc80 -workload gsmix -jobs 150 -err -50 > /dev/null
	$(GO) tool covdata textfmt -i=$(COVERDIR)/data -o $(COVERDIR)/traffic.out
	@echo "functions of internal/{milp,compiler,core,strlgen,rayon,sim,shard,workload} the traffic never entered:"
	@$(GO) tool cover -func=$(COVERDIR)/traffic.out | awk '$$1 ~ /internal\/(milp|compiler|core|strlgen|rayon|sim|shard|workload)\// && $$NF == "0.0%"' \
		| tee $(COVERDIR)/zero.txt
	@awk '{ f = $$1; sub(/^tetrisched\//, "", f); sub(/\/[^\/]*$$/, "", f); print f "." $$2 }' $(COVERDIR)/zero.txt | sort -u > $(COVERDIR)/zero.names
	@awk '!/^#/ && NF { print $$1 }' traffic-cover.allow | sort -u > $(COVERDIR)/allowed.names
	@comm -13 $(COVERDIR)/zero.names $(COVERDIR)/allowed.names | sed 's/^/traffic-cover: entered now, drop from traffic-cover.allow: /'
	@comm -23 $(COVERDIR)/zero.names $(COVERDIR)/allowed.names > $(COVERDIR)/unlisted.names; \
		if [ -s $(COVERDIR)/unlisted.names ]; then \
			echo "traffic-cover: never entered and not on traffic-cover.allow (name the test that enters it, or the reason, or delete it):"; \
			cat $(COVERDIR)/unlisted.names; exit 1; \
		fi
	@echo "traffic-cover: every function the traffic never entered is on traffic-cover.allow"

# Full-scale regeneration of the paper's evaluation (slow; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -all

experiments-quick:
	$(GO) run ./cmd/experiments -all -quick

examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

clean:
	$(GO) clean ./...
