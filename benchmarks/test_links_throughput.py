"""Device-link throughput: pipelined command streams vs inline serial fan-out.

The event-driven link layer (docs/DEVICE_LINKS.md) replaces the fan-out
stage's inline blocking writes — one device after another, each paying
its full round-trip — with per-device command streams: one dispatcher
thread coalesces queued ops into batches, pays **one** round-trip per
batch, and keeps a bounded window of streams in flight per device.
This benchmark builds the fleet that refactor targets: sixteen devices
(fifteen PBXes with disjoint extension prefixes plus the shared
messaging platform), every link a *serial craft channel* costing
``link_commands`` sequential round-trips per blocking op — so the
messaging platform, touched by every update, is the structural
bottleneck the batching collapses.

Measures update sequences/second for the inline serial baseline (the
paper's fan-out: each client thread applies its sequence's devices one
blocking write at a time) against ``device_links=True`` on the same
four-lane coordinator, repeats the comparison with a mixed-latency
fleet (slow shared messaging link), and records a stalled-device
observation showing the lane depth limit bounding queued work while a
link is down.  The four cells run in alternation
(``conftest.alternate``); the gate is the same-run ratio of medians,
links over serial on the uniform 2 ms fleet, which must reach 2.
Writes each cell's median, quartiles and runs, the median messaging
batch and the stall observation to ``BENCH_links.json``
(``conftest.record``).  Run with::

    make bench-links
"""

import statistics
import threading
import time
from functools import partial

import pytest

from conftest import alternate, person_attrs, record

from repro.core import MetaComm, MetaCommConfig, PbxConfig

#: Simulated management-link round-trip per command (seconds).
LINK_LATENCY = 0.002
#: Concurrent client threads, each owning one extension prefix.
CLIENTS = 8
#: Person adds per client per measured run.
UPDATES_PER_CLIENT = 5
#: Alternating runs per (fleet, mode) cell.
REPEATS = 5
#: Coordinator lanes in both modes (the production sharded queue).
LANES = 4
#: PBX count; with the messaging platform the fleet is 16 devices.
PBX_COUNT = 15
#: Commands per blocking op on a PBX craft channel.
PBX_COMMANDS = 2
#: Commands per blocking op on the messaging platform's channel.
MESSAGING_COMMANDS = 3
#: Required speedup of device links over inline serial fan-out.
SPEEDUP_FLOOR = 2.0
#: Messaging link latency per fleet: uniform, and a slow shared link.
FLEETS = {"uniform": LINK_LATENCY, "slow-messaging": 4 * LINK_LATENCY}

#: Disjoint two-digit extension prefixes: clients use 41..48, the rest
#: of the fleet (51..57) is provisioned but idle — it still costs link
#: registrations and dispatcher bookkeeping, as a real fleet would.
PREFIXES = [str(41 + i) for i in range(CLIENTS)] + [
    str(51 + i) for i in range(PBX_COUNT - CLIENTS)
]


def _fleet(mode: str, messaging_latency: float) -> MetaComm:
    """Sixteen devices on serial craft channels, rules on the compiled
    tier.  ``mode`` selects the fan-out machinery: ``"serial"`` is the
    inline baseline (the client thread running the sequence sleeps
    through every device's round-trips in turn), ``"links"`` the event-driven dispatcher."""
    config = MetaCommConfig(
        pbxes=[PbxConfig(f"pbx-{i + 1}", (p,)) for i, p in enumerate(PREFIXES)],
        coordinator_lanes=LANES,
        lexpress_mode="compiled",
        device_links=(mode == "links"),
    )
    system = MetaComm(config)
    for pbx in system.pbxes.values():
        pbx.link_latency = LINK_LATENCY
        pbx.link_serial = True
        pbx.link_commands = PBX_COMMANDS
    system.messaging.link_latency = messaging_latency
    system.messaging.link_serial = True
    system.messaging.link_commands = MESSAGING_COMMANDS
    return system


def _run_once(mode: str, messaging_latency: float, batches: list[float]) -> float:
    """One measured run: CLIENTS threads adding into disjoint partitions;
    returns sequences/second and, in links mode, appends the messaging
    link's mean batch to *batches*."""
    system = _fleet(mode, messaging_latency)
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
        for i in range(CLIENTS):
            assert system.pbxes[f"pbx-{i + 1}"].size() == UPDATES_PER_CLIENT
        registry = system.obs.registry
        assert registry.value("metacomm_queue_processed_total") == total
        # Partition-disjoint traffic never serializes behind one lane.
        assert registry.value("metacomm_queue_serial_fallback_total") == 0
        if mode == "links":
            rows = {row["device"]: row for row in system.links.snapshot()}
            messaging = rows["messaging"]
            assert messaging["completed"] == total
            batches.append(total / messaging["flushes"])
        return total / elapsed
    finally:
        system.close()


def _observe_stall() -> dict:
    """A stalled link with a lane depth limit: queued work stays bounded.

    Pauses pbx-1's link, pushes more updates at its partition than the
    lane admits, and samples how much work the system is holding — the
    depth limit keeps the lane's claim set (and so the per-update
    buffers behind it) constant no matter how many clients pile up."""
    depth_limit = 2
    writers = 6
    system = MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig("pbx-1", ("41",))],
            coordinator_lanes=2,
            device_links=True,
            lane_depth_limit=depth_limit,
            busy_policy="defer",
            busy_timeout=30.0,
        )
    )
    try:
        link = system.links.link("pbx-1")
        link.pause()
        threads = [
            threading.Thread(
                target=system.connection().add,
                args=(
                    f"cn=S{i},o=Lucent",
                    person_attrs(f"S{i}", "S", definityExtension=f"41{i:02d}"),
                ),
            )
            for i in range(writers)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        peak_outstanding = peak_pending = 0
        deferred = 0
        while time.monotonic() < deadline:
            rows = system.um.queue.lane_snapshot()
            peak_outstanding = max(
                peak_outstanding,
                max(row["outstanding"] for row in rows),
            )
            peak_pending = max(peak_pending, link.snapshot()["pending"])
            deferred = int(system.obs.registry.value(
                "metacomm_queue_admission_deferred_total"
            ))
            if deferred >= writers - depth_limit:
                break
            time.sleep(0.02)
        link.resume()
        for t in threads:
            t.join()
        assert peak_outstanding <= depth_limit
        assert system.pbxes["pbx-1"].size() == writers
        return {
            "writers": writers,
            "lane_depth_limit": depth_limit,
            "peak_lane_outstanding": peak_outstanding,
            "peak_link_pending": peak_pending,
            "admission_deferred": deferred,
        }
    finally:
        system.close()


@pytest.mark.benchmarks
def test_device_link_throughput():
    batches: dict[str, list[float]] = {fleet: [] for fleet in FLEETS}
    cells = {
        f"{mode}-{fleet}": partial(_run_once, mode, latency, batches[fleet])
        for fleet, latency in FLEETS.items()
        for mode in ("serial", "links")
    }
    samples = alternate(cells, REPEATS)
    document = record(
        "BENCH_links.json",
        "device_link_throughput",
        {
            "devices": PBX_COUNT + 1,
            "clients": CLIENTS,
            "updates_per_client": UPDATES_PER_CLIENT,
            "coordinator_lanes": LANES,
            "link_latency_s": LINK_LATENCY,
            "messaging_latency_s": FLEETS,
            "pbx_commands": PBX_COMMANDS,
            "messaging_commands": MESSAGING_COMMANDS,
            "metric": "update sequences per second",
            "fleet": (
                "15 PBXes (disjoint prefixes, serial craft channels) "
                "+ 1 messaging platform touched by every update"
            ),
        },
        samples,
        ("links-uniform", "serial-uniform", SPEEDUP_FLOOR),
        extra={
            "messaging_median_batch": {
                fleet: round(statistics.median(b), 2)
                for fleet, b in batches.items()
            },
            "stalled_link": _observe_stall(),
        },
    )
    assert document["gate"]["passed"], document["gate"]
