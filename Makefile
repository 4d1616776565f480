PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-isolated check check-concur bench-smoke perf-smoke bench bench-ab bench-pipeline bench-lanes bench-links bench-health bench-e7 lint stats monitor

## Tier-1: the full unit/integration suite (tests/ only).
test:
	$(PYTHON) -m pytest -x -q

## Every tests/test_*.py in a process of its own, two at a time: catches a
## test that passes only because an earlier file warmed process-wide state.
## Fails if any file fails, and prints the tail of that file's output.
test-isolated:
	@ls tests/test_*.py | xargs -P 2 -I{} sh -c \
		'out=$$($(PYTHON) -m pytest -q -p no:cacheprovider {} 2>&1) \
		&& echo "ok      {}" \
		|| { echo "FAILED  {}"; echo "$$out" | tail -n 25; exit 1; }'

## lexcheck: static analysis of the shipped mapping configuration
## (docs/ANALYSIS.md).  Fails on any unsuppressed warning or error.
check:
	$(PYTHON) -m repro check --fail-on=warning

## LX5xx: concurrency lints over the runtime source (docs/CONCURRENCY.md)
## plus the witness-enabled concurrent-client stress tests.  Fails on any
## unsuppressed warning or error, or on a witness.violation.
check-concur:
	$(PYTHON) -m repro check --concurrency --fail-on=warning
	$(PYTHON) -m pytest tests/test_threaded_coordinator.py tests/test_stateful_system.py tests/test_lockwitness.py tests/test_incremental_audit.py tests/test_telemetry_golden.py tests/test_journal_invariants.py -x -q

## Every bench-* gate below uses one method (benchmarks/conftest.py):
## its cells run in alternation, each 5 times (bench-health: 8), and the
## gate is the same-run ratio of two cells' medians against a fixed
## floor.  Each writes its cells' medians, quartiles and runs to a
## BENCH_*.json and fails below the floor.

## Instrumentation overhead of the observability layer: E1 mixed stream,
## events/s with observability on vs off; writes BENCH_obs.json and fails
## when on/off < 1/1.35.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -m benchmarks -s -p no:cacheprovider

## Benchmark-harness smoke: one short traced wba_churn run (about 20 s).
## Fails unless the run ends with "correct": true — an oracle failure or
## a ledger wrap target the program no longer has (a "# problem" line)
## makes it false (perfbench/README.md).  It also fails when obs.spans
## reads 0: the traced run counts spans through system.traces(), so a
## zero means the journal's trace views came back empty.  The run's final
## JSON line (the end-to-end metrics and the per-layer ledger) is kept in
## perf_smoke.json.
perf-smoke:
	@out="$$($(PYTHON) perfbench/run.py --workload wba_churn --seed 1 --seconds 2 --trace 1)"; \
		status=$$?; echo "$$out"; \
		echo "$$out" | tail -n 1 > perf_smoke.json; \
		[ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": true' \
		&& $(PYTHON) -c 'import json, sys; spans = json.load(open("perf_smoke.json"))["metrics"]["obs.spans"]["value"]; sys.exit(0 if spans > 0 else "perf-smoke: obs.spans is 0")'

## A/B of the perfbench end-to-end metrics: BASE (any git revision)
## against the working tree as it is on disk, the two run alternately,
## SEEDS (default 1-5) x WORKLOADS (default all three), 8 s per run.
## Prints each metric's two medians, the base's interquartile range, the
## ratio and the pairs the working tree won.  Informational, not a gate;
## writes nothing under perfbench/.  Example: make bench-ab BASE=HEAD~1
bench-ab:
	@[ -n "$(BASE)" ] || { echo "usage: make bench-ab BASE=<rev> [SEEDS=1-5] [WORKLOADS=a,b]"; exit 2; }
	$(PYTHON) benchmarks/ab_perfbench.py --base $(BASE) \
		$(if $(SEEDS),--seeds $(SEEDS)) $(if $(WORKLOADS),--workloads $(WORKLOADS))

## Serial vs device-link fan-out throughput at 1, 2 and 4 PBXes; writes
## BENCH_pipeline.json and fails when links/serial at 4 PBXes < 1.5.
bench-pipeline:
	$(PYTHON) -m pytest benchmarks/test_pipeline_throughput.py -m benchmarks -s -p no:cacheprovider

## Coordinator-lane sweep (1/2/4/8 lanes, partition-disjoint workload);
## writes BENCH_lanes.json and fails when 4 lanes / 1 lane < 2
## (docs/CONCURRENCY.md).
bench-lanes:
	$(PYTHON) -m pytest benchmarks/test_lane_throughput.py -m benchmarks -s -p no:cacheprovider

## Event-driven device links vs inline serial fan-out (16 devices,
## 2 ms serial craft channels, plus a slow-messaging fleet); writes
## BENCH_links.json and fails when links/serial on the uniform fleet < 2
## (docs/DEVICE_LINKS.md).
bench-links:
	$(PYTHON) -m pytest benchmarks/test_links_throughput.py -m benchmarks -s -p no:cacheprovider

## Health-plane overhead: device-link pipeline throughput with the
## journal + health board + background auditor on vs observability off;
## writes BENCH_health.json and fails when plane on/off < 0.95.
bench-health:
	$(PYTHON) -m pytest benchmarks/test_health_overhead.py -m benchmarks -s -p no:cacheprovider

## Rule evaluation engines: interpreter vs compiled closures vs verify
## mode on the E7 image() workload; writes BENCH_e7.json and fails when
## compiled/interpret < 2 (docs/LEXPRESS_COMPILER.md).
bench-e7:
	$(PYTHON) -m pytest benchmarks/test_e7_compiled.py -m benchmarks -s -p no:cacheprovider

## Static checks (ruff config in pyproject.toml); skips when ruff is absent.
lint:
	@$(PYTHON) -m ruff --version >/dev/null 2>&1 \
		&& $(PYTHON) -m ruff check src tests benchmarks \
		|| echo "ruff not installed; skipping lint"

## The full experiment harness (slow).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## Run the demo workload and dump metrics + traces.
stats:
	$(PYTHON) -m repro stats

## Run the demo workload and show the health-plane dashboard.
monitor:
	$(PYTHON) -m repro monitor
