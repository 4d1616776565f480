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
messaging platform), serial vs links, on one synchronous client, and
checks the ``consistent()`` oracle after every run.  The six cells run
in alternation (``conftest.alternate``); the gate is the same-run ratio
of medians, links over serial with four PBXes, which must reach 1.5.
Writes each cell's median, quartiles and runs to ``BENCH_pipeline.json``
(``conftest.record``).  Run with::

    make bench-pipeline
"""

import time
from functools import partial

import pytest

from conftest import alternate, person_attrs, record

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per device write (seconds).
LINK_LATENCY = 0.002
#: Update sequences per measured run.
UPDATES = 25
#: Alternating runs per (config, mode) cell.
REPEATS = 5
#: PBX counts to sweep.
PBXES = (1, 2, 4)
#: Required links speedup at the largest configuration.
SPEEDUP_FLOOR = 1.5


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


@pytest.mark.benchmarks
def test_links_fanout_throughput():
    cells = {
        f"{mode}-{n}pbx": partial(_run_once, n, mode == "links")
        for n in PBXES
        for mode in ("serial", "links")
    }
    document = record(
        "BENCH_pipeline.json",
        "pipeline_fanout_throughput",
        {
            "pbxes": PBXES,
            "updates_per_run": UPDATES,
            "link_latency_s": LINK_LATENCY,
            "metric": "update sequences per second",
        },
        alternate(cells, REPEATS),
        ("links-4pbx", "serial-4pbx", SPEEDUP_FLOOR),
    )
    assert document["gate"]["passed"], document["gate"]
