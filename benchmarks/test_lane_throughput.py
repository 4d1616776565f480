"""Coordinator-lane throughput: the commutativity-sharded Update Manager.

The routing oracle (docs/CONCURRENCY.md) proves updates that land in
disjoint extension-prefix partitions commute, so the sharded queue may
drain them on concurrent coordinator lanes.  This benchmark builds the
workload that proof targets: eight PBXes owning disjoint prefixes, every
device write paying a simulated management-link round-trip, and eight
client threads each updating only its own partition.  A single lane
serializes the whole stream behind one coordinator; more lanes overlap
the link latency of provably-independent sequences.

Measures update sequences/second for ``coordinator_lanes`` in {1, 2, 4,
8} and checks the ``consistent()`` oracle and that *nothing* fell back
to the serial lane after every run.  The four cells run in alternation
(``conftest.alternate``); the gate is the same-run ratio of medians,
four lanes over one, which must reach 2.  Writes each cell's median,
quartiles and runs to ``BENCH_lanes.json`` (``conftest.record``).  Run
with::

    make bench-lanes
"""

import threading
import time
from functools import partial

import pytest

from conftest import alternate, person_attrs, record

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per device write (seconds).
LINK_LATENCY = 0.002
#: Concurrent client threads == PBX partitions (prefixes 41..48).
CLIENTS = 8
#: Person adds per client per measured run.
UPDATES_PER_CLIENT = 5
#: Alternating runs per lane count.
REPEATS = 5
#: Lane counts to sweep.
LANES = (1, 2, 4, 8)
#: Required speedup of 4 lanes over 1 lane.
SPEEDUP_FLOOR = 2.0


def _fleet(lanes: int) -> MetaComm:
    """Eight PBXes with disjoint extension prefixes: every update fans
    out to exactly one PBX (plus messaging), and updates from different
    prefixes provably commute.  Rules run on the compiled tier — the
    production configuration this benchmark gates."""
    system = MetaComm(
        MetaCommConfig(
            pbxes=[
                PbxConfig(f"pbx-{i + 1}", (str(41 + i),))
                for i in range(CLIENTS)
            ],
            coordinator_lanes=lanes,
            lexpress_mode="compiled",
        )
    )
    for pbx in system.pbxes.values():
        pbx.link_latency = LINK_LATENCY
    system.messaging.link_latency = LINK_LATENCY
    system.um.start()
    return system


def _run_once(lanes: int) -> float:
    """One measured run: CLIENTS threads adding into disjoint partitions;
    returns update sequences per second."""
    system = _fleet(lanes)
    try:
        errors: list[Exception] = []

        def client(i: int) -> None:
            try:
                conn = system.connection()
                for j in range(UPDATES_PER_CLIENT):
                    conn.add(
                        f"cn=U{i}-{j},o=Lucent",
                        person_attrs(
                            f"U{i}-{j}", "U",
                            definityExtension=f"{41 + i}{j:02d}",
                        ),
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start

        assert errors == [], errors
        assert system.consistent(), "oracle failed after run"
        total = CLIENTS * UPDATES_PER_CLIENT
        assert system.messaging.size() == total
        for pbx in system.pbxes.values():
            assert pbx.size() == UPDATES_PER_CLIENT
        registry = system.obs.registry
        assert registry.value("metacomm_queue_processed_total") == total
        # The whole point: partition-disjoint traffic never serializes.
        assert registry.value("metacomm_queue_serial_fallback_total") == 0
        return total / elapsed
    finally:
        system.close()


@pytest.mark.benchmarks
def test_coordinator_lane_throughput():
    cells = {f"lanes-{n}": partial(_run_once, n) for n in LANES}
    document = record(
        "BENCH_lanes.json",
        "coordinator_lane_throughput",
        {
            "clients": CLIENTS,
            "updates_per_client": UPDATES_PER_CLIENT,
            "lanes": LANES,
            "link_latency_s": LINK_LATENCY,
            "metric": "update sequences per second",
            "partitioning": "8 PBXes, disjoint extension prefixes 41..48",
        },
        alternate(cells, REPEATS),
        ("lanes-4", "lanes-1", SPEEDUP_FLOOR),
    )
    assert document["gate"]["passed"], document["gate"]
