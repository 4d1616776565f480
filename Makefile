PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-isolated check check-concur bench-smoke perf-smoke bench bench-ab bench-interleave bench-pipeline bench-lanes bench-links bench-health bench-e7 lint stats monitor

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
## plus the witness-enabled concurrent-client stress tests and the check
## that no link metric is bound or written under the dispatcher's
## condition.  Fails on any unsuppressed warning or error, or on a
## witness.violation.
check-concur:
	$(PYTHON) -m repro check --concurrency --fail-on=warning
	$(PYTHON) -m pytest tests/test_threaded_coordinator.py tests/test_stateful_system.py tests/test_lockwitness.py tests/test_incremental_audit.py tests/test_telemetry_golden.py tests/test_journal_invariants.py tests/test_telemetry_writers.py tests/test_device_links.py::TestMetricsOutsideDispatcherCondition -x -q

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

## Benchmark-harness smoke: two short traced runs, seed 1, 2 s each (about
## 25 s in all).  Each fails unless it ends with "correct": true — an
## oracle failure or a ledger wrap target the program no longer has (a
## "# problem" line) makes it false (perfbench/README.md) — and unless one
## of its ledger metrics reads above 0:
## - wba_churn, obs.spans: the traced run counts spans through
##   system.traces(), so a zero means the journal's trace views came back
##   empty.  Its final JSON line is kept in perf_smoke.json.
## - craft_ddu, ldap.search_us: the read path, the DDU path and the
##   ledger's ldap.search and ltap.read wraps.  Kept in perf_smoke_craft.json.
## $(call perf_smoke_run,WORKLOAD,FILE,METRIC) runs one of them.
define perf_smoke_run
out="$$($(PYTHON) perfbench/run.py --workload $(1) --seed 1 --seconds 2 --trace 1)"; \
	status=$$?; echo "$$out"; \
	echo "$$out" | tail -n 1 > $(2); \
	[ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": true' \
	&& $(PYTHON) -c 'import json, sys; v = json.load(open("$(2)"))["metrics"]["$(3)"]["value"]; sys.exit(0 if v > 0 else "perf-smoke: $(1) $(3) is 0")'
endef

perf-smoke:
	@$(call perf_smoke_run,wba_churn,perf_smoke.json,obs.spans)
	@$(call perf_smoke_run,craft_ddu,perf_smoke_craft.json,ldap.search_us)

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

## Interleaved A/B of per-op thread CPU: BASE (any git revision) and the
## working tree imported side by side in one process under two package
## names, plus a second copy of BASE as an A/A control, every op run on
## each in rotating order (benchmarks/ab_interleaved.py).  Prints the
## per-kind p50 and mean CPU ratios work/base next to the A/A ratios.
## Informational, not a gate; writes nothing under perfbench/.
## Example: make bench-interleave BASE=HEAD~1 [SEEDS=1-2] [WORKLOADS=wba_churn]
bench-interleave:
	@[ -n "$(BASE)" ] || { echo "usage: make bench-interleave BASE=<rev> [SEEDS=1] [WORKLOADS=a,b]"; exit 2; }
	$(PYTHON) benchmarks/ab_interleaved.py --base $(BASE) \
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
