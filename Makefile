# Development entry points. `make check` is the gate CI (and humans)
# should run before merging.

GO ?= go

.PHONY: all build vet test race race-core race-shard check bench bench-sim bench-hot bench-shards bench-baseline bench-compare lake-baseline lake-regression chaos-smoke sweep-demo workload-demo forensics-demo faults-demo clean clean-results

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the packages with shared mutable hot paths (the
# engine, the network, the transport stack incl. the scheme registry, and
# the fault-plan scheduler that mutates ports mid-run); faster than the
# full -race sweep, used as a dedicated CI job.
race-core:
	$(GO) test -race ./internal/sim/... ./internal/netem/... ./internal/transport/... ./internal/faults/...

# Parallel-engine race pass: the shard barrier/horizon/handoff protocol
# (internal/sim/shard) plus the harness's sharded determinism suite,
# which exercises cross-shard flow starts and fault injection, and the
# live table (TestProfileDigestIdentical), whose 2-shard case has every
# engine post into the shared live-status slots under -race.
race-shard:
	$(GO) test -race ./internal/sim/shard/
	$(GO) test -race -run 'Sharded|TestProfileDigestIdentical' ./internal/harness/

check: vet build race

# Figure-level benchmarks (one per paper figure) plus the simulator's
# raw events/sec self-report.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Scheduler-only microbenchmarks: BenchmarkEventChurn reports events/sec.
bench-sim:
	$(GO) test -bench . -benchtime 2s -run '^$$' ./internal/sim/

# Hot-path benchmark set: scheduler dispatch/churn/cancellation plus the
# netem per-hop costs. These feed the bench-baseline/bench-compare
# regression flow; keep the set stable so artifacts stay comparable.
HOT_SIM   = BenchmarkEngineDispatch|BenchmarkEventChurn|BenchmarkTimerStopPending
HOT_NETEM = BenchmarkPortForward|BenchmarkHostHop

bench-hot:
	@$(GO) test -bench '$(HOT_SIM)' -benchmem -benchtime 1s -run '^$$' ./internal/sim/
	@$(GO) test -bench '$(HOT_NETEM)' -benchmem -benchtime 1s -run '^$$' ./internal/netem/

# Parallel-engine scaling series: events/sec at 1/2/4/8 shards on the
# small, paper, and big (768-host) fabrics, web-search at load 0.8,
# recorded as BENCH_PR8.json. The "cpus" metric records how many cores
# the run had — on a single-core machine the series measures
# synchronization overhead, not speedup (DESIGN.md §8).
bench-shards:
	@$(GO) test -bench 'BenchmarkShardScaling' -benchtime 1x -run '^$$' . \
	 | $(GO) run ./cmd/benchjson parse > BENCH_PR8.json
	@echo wrote BENCH_PR8.json

# bench-baseline records the hot-path numbers of the current tree into
# bench-baseline.json; run it on the pre-change commit. bench-compare
# re-runs the set and writes BENCH_PR6.json with per-metric deltas
# (negative ns/op, allocs/op, B/op deltas are improvements).
bench-baseline:
	@{ $(GO) test -bench '$(HOT_SIM)' -benchmem -benchtime 1s -run '^$$' ./internal/sim/ ; \
	   $(GO) test -bench '$(HOT_NETEM)' -benchmem -benchtime 1s -run '^$$' ./internal/netem/ ; } \
	 | $(GO) run ./cmd/benchjson parse > bench-baseline.json
	@echo wrote bench-baseline.json

bench-compare:
	@{ $(GO) test -bench '$(HOT_SIM)' -benchmem -benchtime 1s -run '^$$' ./internal/sim/ ; \
	   $(GO) test -bench '$(HOT_NETEM)' -benchmem -benchtime 1s -run '^$$' ./internal/netem/ ; } \
	 | $(GO) run ./cmd/benchjson parse > bench-current.json
	@$(GO) run ./cmd/benchjson compare bench-baseline.json bench-current.json > BENCH_PR6.json
	@echo wrote BENCH_PR6.json

# Cross-run regression gate over the result lake. lake-regression runs
# the fixed-seed CI micro-sweep into lake-ci/ and diffs its index
# against the checked-in baseline: the simulator is deterministic, so
# the diff runs at zero tolerance and any drift in goodput, FCT
# quantiles, drops, or event counts fails the target (perf self-reports
# are informational only). Re-baseline with lake-baseline after an
# intentional behavior change and commit ci/lake-baseline.json.
lake-regression:
	rm -rf lake-ci
	$(GO) run ./cmd/flexfarm run -spec ci/microsweep.json -out lake-ci
	$(GO) run ./cmd/flexfarm diff ci/lake-baseline.json lake-ci

lake-baseline:
	rm -rf lake-ci
	$(GO) run ./cmd/flexfarm run -spec ci/microsweep.json -out lake-ci
	cp lake-ci/index.json ci/lake-baseline.json
	@echo wrote ci/lake-baseline.json

# Fixed-seed chaos soak: 150 randomized fault/scenario trials on the
# tiny fabric with the forensics auditors promoted to hard oracles
# (invariant violations, non-completing flows, and stray-packet surges
# all fail the trial). The seed is pinned, so the job is deterministic;
# a failing trial leaves chaos-ci/repro-<N>.json, which CI uploads and
# `flexfarm chaos replay` (or `flexsim -fault-plan`) reproduces exactly.
chaos-smoke:
	rm -rf chaos-ci
	$(GO) run ./cmd/flexfarm chaos run -spec ci/chaos-smoke.json -out chaos-ci -shrink

# End-to-end smoke of the runtime introspection plane: the micro-sweep
# served live (/status polled to completion, /metrics format-checked)
# plus an engine self-profile written as folded stacks.
introspection-smoke:
	bash ci/introspection-smoke.sh

# 64-scenario example sweep on the tiny fabric: resumable (re-run the
# target after an interrupt and it picks up where it left off), then a
# paper-figure style query over the lake it built.
sweep-demo:
	$(GO) run ./cmd/flexfarm run -spec examples/sweeps/scaling.json -out results_sweep
	$(GO) run ./cmd/flexfarm query -lake results_sweep \
	  -where fault_sig= -group-by scheme,load -agg fct_p99_us:mean,goodput_gbps:mean,count

# Plan-driven workload demo: runs the flash-crowd example plan (Poisson
# background with a 2.5x flash window plus ON/OFF bursts) and then the
# multi-tenant RPC mix, whose artifact lands per-tenant and coflow
# counters (workload/tenant/*, workload/coflow cct_us) in run.jsonl.
workload-demo:
	$(GO) run ./cmd/flexsim -workload-plan examples/workloads/flash-crowd.json -duration 5
	$(GO) run ./cmd/flexsim -workload-plan examples/workloads/tenant-classes.json -duration 5 -telemetry-out run.jsonl
	@echo "per-tenant and coflow counters:" && grep -h '"workload/' run.jsonl | head -12

# Observation-only flow forensics on an incast run: records hop-by-hop
# packet events, runs the invariant auditors (credit conservation,
# shared-buffer accounting, starvation — a healthy run reports zero
# violations), and renders the worst-slowdown flow timelines.
forensics-demo:
	$(GO) run ./cmd/flexsim -incast 0.1 -duration 2 -forensics-out forensics.jsonl
	$(GO) run ./cmd/flexplot timeline forensics.jsonl

# Scripted fault injection: runs the sample flap+burst plan as a
# clean-vs-faulted pair and writes the per-scheme degradation report
# (goodput/tail-FCT deltas, injected drops by cause, recovery time) to
# degradation.jsonl + degradation.csv.
faults-demo:
	$(GO) run ./cmd/flexsim -fault-plan examples/faultplans/flap.json -duration 12 -degradation-out degradation

clean:
	rm -f cpu.prof mem.prof run.jsonl forensics.jsonl bench-current.json degradation.jsonl degradation.csv

# Remove regenerated sweep/lake outputs. The checked-in results/,
# results_full/, and results_pooled/ CSVs are figure inputs and stay.
clean-results:
	rm -rf lake-ci results_sweep chaos-ci
