# Developer entry points. `make check` is the pre-commit gate: static vetting
# plus the race-enabled short test suite (the telemetry layer's concurrent SM
# reporting must stay race-clean).

GO ?= go

.PHONY: check build vet lint test test-full stress perfbench-test bench chaos trace-smoke perfdiff-smoke shard-smoke health-smoke load-smoke quality-smoke

check: vet lint test stress perfbench-test chaos shard-smoke trace-smoke health-smoke load-smoke quality-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Import layering: algorithm packages meet only through the engine registry.
# Tree hygiene: no non-Go artifacts under internal/.
lint:
	sh scripts/lint_imports.sh
	sh scripts/lint_tree.sh

test:
	$(GO) test -race -short ./...

# Full suite without the race detector (what CI tier-1 runs).
test-full:
	$(GO) test ./...

# Stress: the job-lifecycle, job-store, live-stream and flight tests twenty
# times over under -race. These publish terminal job state to concurrent
# readers, so an ordering bug shows up as an intermittent failure; one pass
# of -short cannot tell a fix from luck.
stress:
	$(GO) test -race -count=20 -run 'Flight|JobStore|JobLifecycle|LiveStream' ./internal/httpapi/

# The repository benchmark (perfbench/) is its own Go module built against
# this one through a replace directive, so ./... above does not compile it.
# Its tests catch API changes that would break the benchmark build.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Chaos conformance: fault injection, cancellation, and recovery under -race.
# Every detector under a fault schedule must converge to a valid partition or
# return a typed error — never hang, never panic.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Cancel|Deadline' \
		./internal/engine/ ./internal/nulpa/ ./internal/simt/ ./internal/faults/ \
		./internal/httpapi/ ./internal/health/

# Shard smoke: the multi-device backend end to end under -race — partition
# and halo construction, the BSP superstep loop, conformance (determinism,
# partition validity, modularity floor), and single-shard fault recovery.
shard-smoke:
	$(GO) test -race -count=1 -run 'Shard|Partition|Conformance' \
		./internal/engine/ ./internal/nulpa/ ./internal/shard/ ./internal/partition/

# Trace smoke: run a small detection with -trace-out and validate the JSONL
# span export with cmd/tracecheck (schema + run→detect→iteration→kernel
# connectivity), plus both -log-format modes.
trace-smoke:
	sh scripts/trace_smoke.sh

# Health smoke: faulted one-shot must emit per-iteration health lines and a
# schema-valid flight dump (reason degraded); live server must stream >=1 SSE
# frame per iteration and serve /jobs/{id}/flight (validated by
# cmd/healthcheck, schema pinned to the committed golden).
health-smoke:
	sh scripts/health_smoke.sh

# Load smoke: overload the serving plane end to end — tiny device pool, an
# open-loop storm from cmd/loadgen, then a fault-injected chaos run. Gates on
# zero lost jobs, Retry-After on every shed, a balanced /debug/vars ledger,
# and a bench-history entry for the run.
load-smoke:
	sh scripts/load_smoke.sh

# Quality smoke: the quality telemetry plane end to end — a planted-partition
# one-shot with -quality must land above the modularity floor with estimator
# drift inside the 1e-6 budget, and a quality-enabled job on a live server
# must surface its final modularity both on the job status and as
# engine_quality_run_modularity on /metrics, the two agreeing.
quality-smoke:
	sh scripts/quality_smoke.sh

# Perfdiff smoke: bench twice into one history file, diff the pair with
# cmd/perfdiff, and validate the attribution report (coverage of the work
# counters, golden JSON schema, Chrome counter export).
perfdiff-smoke:
	sh scripts/perfdiff_smoke.sh

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/bench/
