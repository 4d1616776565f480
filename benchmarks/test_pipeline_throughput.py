"""Pipeline throughput: serial vs device-link fan-out.

The staged pipeline applies a sequence's planned device updates either
inline, one device at a time (the paper's serial discipline), or through
the event-driven device links (``MetaCommConfig.device_links``), which
overlap every device's round-trip.  With in-memory devices the fan-out
stage is far too fast for concurrency to matter, so every device here
simulates a management-link round-trip (``link_latency``) — the serial
craft interface / network hop that dominates real deployments.  Serial
mode pays that latency once per device; links mode overlaps them, so the
expected ceiling is roughly the device count.

Measures update sequences/second for 1, 2 and 4 PBXes (plus the
messaging platform), serial vs links, on one synchronous client,
checks the ``consistent()`` oracle after every run, asserts the headline
speedup (>= 1.5x with four PBXes) and writes the results to
``BENCH_pipeline.json``.  Run with::

    make bench-pipeline
"""

import json
import time
from pathlib import Path

import pytest

from conftest import person_attrs

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per device write (seconds).
LINK_LATENCY = 0.002
#: Update sequences per measured run.
UPDATES = 25
#: Best-of runs per (config, mode) cell.
REPEATS = 3
#: Required links speedup at the largest configuration.
SPEEDUP_FLOOR = 1.5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def _fleet(n_pbxes: int, links: bool) -> MetaComm:
    """n PBXes sharing one extension prefix (every update fans out to all
    of them and the messaging platform) with simulated link latency."""
    system = MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i + 1}", ("4",)) for i in range(n_pbxes)],
            device_links=links,
        )
    )
    for pbx in system.pbxes.values():
        pbx.link_latency = LINK_LATENCY
    system.messaging.link_latency = LINK_LATENCY
    return system


def _run_once(n_pbxes: int, links: bool) -> float:
    """One measured run: UPDATES person adds; returns sequences/second."""
    system = _fleet(n_pbxes, links)
    try:
        conn = system.connection()
        start = time.perf_counter()
        for i in range(UPDATES):
            conn.add(
                f"cn=U{i},o=Lucent",
                person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
            )
        elapsed = time.perf_counter() - start
        assert system.consistent(), "oracle failed after run"
        assert system.messaging.size() == UPDATES
        for pbx in system.pbxes.values():
            assert pbx.size() == UPDATES
        return UPDATES / elapsed
    finally:
        system.close()


def _measure(n_pbxes: int, links: bool) -> float:
    return max(_run_once(n_pbxes, links) for _ in range(REPEATS))


@pytest.mark.benchmarks
def test_links_fanout_throughput():
    results = []
    for n_pbxes in (1, 2, 4):
        serial = _measure(n_pbxes, links=False)
        links = _measure(n_pbxes, links=True)
        results.append(
            {
                "pbxes": n_pbxes,
                "devices": n_pbxes + 1,  # + messaging platform
                "serial_seq_per_s": round(serial, 1),
                "links_seq_per_s": round(links, 1),
                "speedup": round(links / serial, 2),
            }
        )

    document = {
        "benchmark": "pipeline_fanout_throughput",
        "workload": {
            "updates_per_run": UPDATES,
            "repeats": REPEATS,
            "link_latency_s": LINK_LATENCY,
            "metric": "update sequences per second, best of repeats",
        },
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print("\n=== pipeline fan-out throughput ===")
    print("pbxes  devices  serial/s  links/s  speedup")
    for row in results:
        print(
            f"{row['pbxes']:>5}  {row['devices']:>7}  "
            f"{row['serial_seq_per_s']:>8}  {row['links_seq_per_s']:>7}  "
            f"{row['speedup']:>6}x"
        )

    largest = results[-1]
    assert largest["speedup"] >= SPEEDUP_FLOOR, (
        f"device-link fan-out speedup {largest['speedup']}x with "
        f"{largest['devices']} devices is below the {SPEEDUP_FLOOR}x floor"
    )
