"""Overhead of the runtime health plane on pipeline throughput.

The health plane observes every update (journal events, per-device
outcome/link telemetry, queue staleness) and runs a background
consistency auditor — none of which may meaningfully slow the pipeline
down.  This benchmark drives the ``test_pipeline_throughput`` workload at
its largest configuration (4 PBXes + messaging on device links, simulated
management-link latency) twice per repeat: once with the plane **fully
enabled** — journal + health board + queue gauges + the auditor sampling
in the background — and once with ``observability=False``.  The two
cells run in alternation (``conftest.alternate``).

The gate is the same-run ratio of medians, plane-on over plane-off,
which must stay at or above ``RATIO_FLOOR`` (i.e. < 5% regression).
Writes each cell's median, quartiles and runs to ``BENCH_health.json``
(``conftest.record``).  Run with::

    make bench-health
"""

import time
from functools import partial

import pytest

from conftest import alternate, person_attrs, record

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per device write (seconds).
LINK_LATENCY = 0.002
#: PBX count (plus the messaging platform -> 5 devices per fan-out).
PBXES = 4
#: Update sequences per measured run.
UPDATES = 60
#: Alternating runs per cell.
REPEATS = 8
#: Background auditor sampling interval while measuring (seconds).
AUDIT_INTERVAL = 0.05
#: median plane-on throughput must stay >= this fraction of the median
#: plane-off throughput of the same run.
RATIO_FLOOR = 0.95


def _fleet(observability: bool) -> MetaComm:
    system = MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i + 1}", ("4",)) for i in range(PBXES)],
            device_links=True,
            observability=observability,
            audit_interval=AUDIT_INTERVAL,
        )
    )
    for pbx in system.pbxes.values():
        pbx.link_latency = LINK_LATENCY
    system.messaging.link_latency = LINK_LATENCY
    return system


def _run_once(observability: bool) -> float:
    system = _fleet(observability)
    try:
        if observability:
            system.auditor.start()
        conn = system.connection()
        start = time.perf_counter()
        for i in range(UPDATES):
            conn.add(
                f"cn=U{i},o=Lucent",
                person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
            )
        elapsed = time.perf_counter() - start
        if observability:
            system.auditor.stop()
        assert system.consistent(), "oracle failed after run"
        return UPDATES / elapsed
    finally:
        system.close()


@pytest.mark.benchmarks
def test_health_plane_overhead():
    cells = {
        "plane-on": partial(_run_once, True),
        "plane-off": partial(_run_once, False),
    }
    document = record(
        "BENCH_health.json",
        "health_plane_overhead",
        {
            "pbxes": PBXES,
            "devices": PBXES + 1,
            "fan_out": "device links",
            "updates_per_run": UPDATES,
            "link_latency_s": LINK_LATENCY,
            "audit_interval_s": AUDIT_INTERVAL,
            "metric": "update sequences per second",
        },
        alternate(cells, REPEATS),
        ("plane-on", "plane-off", RATIO_FLOOR),
    )
    assert document["gate"]["passed"], document["gate"]
