"""Overhead of the runtime health plane on pipeline throughput.

The health plane observes every update (journal events, per-device
outcome/link telemetry, queue staleness) and runs a background
consistency auditor — none of which may meaningfully slow the pipeline
down.  This benchmark drives the ``test_pipeline_throughput`` workload at
its largest configuration (4 PBXes + messaging on device links, simulated
management-link latency) twice per repeat: once with the plane **fully
enabled** — journal + health board + queue gauges + the auditor sampling
in the background — and once with ``observability=False``.  The two
cells alternate, and which one runs first alternates too, so host drift
lands on both sides alike.

The gate is the same-run ratio of medians, plane-on over plane-off; the
interquartile range of each side is recorded beside it.  Writes the
measurements to ``BENCH_health.json`` and asserts the ratio stays at or
above ``RATIO_FLOOR`` (i.e. < 5% regression).  Run with::

    make bench-health
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from conftest import person_attrs

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per device write (seconds).
LINK_LATENCY = 0.002
#: PBX count (plus the messaging platform -> 5 devices per fan-out).
PBXES = 4
#: Update sequences per measured run.
UPDATES = 60
#: Alternating plane-on/plane-off run pairs.
REPEATS = 8
#: Background auditor sampling interval while measuring (seconds).
AUDIT_INTERVAL = 0.05
#: median plane-on throughput must stay >= this fraction of the median
#: plane-off throughput of the same run.
RATIO_FLOOR = 0.95

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_health.json"


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


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "median_seq_per_s": round(median, 1),
        "q1_seq_per_s": round(q1, 1),
        "q3_seq_per_s": round(q3, 1),
        "iqr_seq_per_s": round(q3 - q1, 1),
        "runs": [round(s, 1) for s in samples],
    }


@pytest.mark.benchmarks
def test_health_plane_overhead():
    plane_on: list[float] = []
    plane_off: list[float] = []
    for repeat in range(REPEATS):
        order = (True, False) if repeat % 2 == 0 else (False, True)
        for observability in order:
            rate = _run_once(observability)
            (plane_on if observability else plane_off).append(rate)
    on, off = _summary(plane_on), _summary(plane_off)
    ratio = statistics.median(plane_on) / statistics.median(plane_off)

    document = {
        "benchmark": "health_plane_overhead",
        "workload": {
            "pbxes": PBXES,
            "devices": PBXES + 1,
            "fan_out": "device links",
            "updates_per_run": UPDATES,
            "repeats": REPEATS,
            "link_latency_s": LINK_LATENCY,
            "audit_interval_s": AUDIT_INTERVAL,
            "metric": (
                "update sequences per second; median and quartiles over "
                "alternating plane-on/plane-off runs"
            ),
        },
        "results": {
            "plane_on": on,
            "plane_off": off,
            "ratio_of_medians": round(ratio, 3),
            "ratio_floor": RATIO_FLOOR,
            "passed": ratio >= RATIO_FLOOR,
        },
    }
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print("\n=== health plane overhead (4-PBX fleet, device links) ===")
    for label, cell in (("plane off", off), ("plane on", on)):
        print(
            f"{label:<10} median {cell['median_seq_per_s']:7.1f} seq/s  "
            f"IQR {cell['q1_seq_per_s']:.1f}-{cell['q3_seq_per_s']:.1f}"
        )
    print(f"ratio of medians: {ratio:.3f}   (floor {RATIO_FLOOR})")

    assert ratio >= RATIO_FLOOR, (
        f"health plane costs {(1 - ratio) * 100:.1f}% throughput "
        f"(allowed {(1 - RATIO_FLOOR) * 100:.0f}%)"
    )
