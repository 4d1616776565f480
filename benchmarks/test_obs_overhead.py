"""Smoke benchmark: instrumentation overhead of the observability layer.

The metrics registry and the event journal (with the per-stage timings
its traces are read from) sit on every hop of the update pipeline, so
they must be cheap.  This runs the E1 mixed-stream workload
with observability enabled and disabled, the two cells in alternation
(``conftest.alternate``), and gates the same-run ratio of medians,
events/s on over off.

The design target is <10% overhead; the floor is looser (1 /
OVERHEAD_BOUND, i.e. the enabled run may take up to 1.35x as long)
because single-run wall-clock ratios on shared CI machines are noisy.
Writes each cell's median, quartiles and runs to ``BENCH_obs.json``
(``conftest.record``).  Run with::

    make bench-smoke
"""

import time
from functools import partial

import pytest
from conftest import alternate, fresh_system, record

from repro.workloads import (
    apply_stream,
    make_population,
    make_stream,
    populate_via_ldap,
)

#: Design target is 1.10; the gate leaves headroom for scheduler noise.
OVERHEAD_BOUND = 1.35

PEOPLE = 12
EVENTS = 50
REPEATS = 5


def _run_once(observability: bool) -> float:
    """One timed E1-style mixed stream; returns events per second."""
    system = fresh_system(observability=observability)
    people = make_population(PEOPLE)
    populate_via_ldap(system, people)
    events = make_stream(people, EVENTS, ddu_fraction=0.3, seed=23)
    start = time.perf_counter()
    apply_stream(system, events)
    return EVENTS / (time.perf_counter() - start)


@pytest.mark.benchmarks
def test_instrumentation_overhead_is_bounded():
    cells = {
        "obs-off": partial(_run_once, False),
        "obs-on": partial(_run_once, True),
    }
    document = record(
        "BENCH_obs.json",
        "observability_overhead",
        {
            "people": PEOPLE,
            "events": EVENTS,
            "metric": "stream events per second",
        },
        alternate(cells, REPEATS),
        ("obs-on", "obs-off", 1 / OVERHEAD_BOUND),
    )
    assert document["gate"]["passed"], document["gate"]


@pytest.mark.benchmarks
def test_instrumented_run_produces_traces_and_metrics():
    system = fresh_system(observability=True)
    people = make_population(4)
    populate_via_ldap(system, people)
    apply_stream(system, make_stream(people, 10, ddu_fraction=0.5, seed=5))
    assert system.traces(), "no traces collected"
    assert system.obs.registry.value("metacomm_um_ldap_events_total") > 0
    assert "metacomm_um_sequence_seconds" in system.metrics_text()
