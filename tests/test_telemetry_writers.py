"""Telemetry written from several threads at once adds up exactly.

Metric children keep one cell per writing thread and sum the cells on
read (repro.obs.metrics), and the journal's ring evicts past its
capacity.  Four client threads each run 25 of the same 100 LTAP updates
that one thread runs alone; every counter and every histogram count of
the concurrent run must equal the single-thread run's, and the journal
must count each eviction exactly once.  Run with the lock witness on,
with inline fan-out and with device links.
"""

import threading

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import Modification
from repro.schemas import PERSON_CLASSES

WRITERS = 4
UPDATES = 100
CAPACITY = 8

#: Series that count how often a lock was taken, not what happened: the
#: queue's condition is retaken by every waiting thread's polls, so
#: concurrent clients take it more often than one client does.
SCHEDULE_DEPENDENT = ("metacomm_lockwitness_acquisitions_total",)


def writer_ops(writer: int) -> list[tuple]:
    """One writer's 25 updates, on entries no other writer touches: 13
    adds, then a room change of 12 of them."""
    ops = []
    people = [f"P{writer}-{i}" for i in range(13)]
    for i, cn in enumerate(people):
        ops.append(("add", cn, f"4{writer}{i:02d}"))
    for cn in people[:12]:
        ops.append(("modify", cn, f"{writer}B-1{len(ops):02d}"))
    return ops


def run(system, ops) -> None:
    conn = system.connection()
    for kind, cn, value in ops:
        dn = f"cn={cn},o=Marketing,o=Lucent"
        if kind == "add":
            conn.add(dn, {
                "objectClass": list(PERSON_CLASSES),
                "cn": cn,
                "sn": cn.split("-")[0],
                "definityExtension": value,
            })
        else:
            conn.modify(dn, [Modification.replace("definityRoom", value)])


def counts(system) -> dict:
    """Every counter's value and every histogram's count, per series."""
    out = {}
    for metric in system.obs.registry:
        if metric.kind == "gauge" or metric.name in SCHEDULE_DEPENDENT:
            continue
        for key, child in metric.children():
            if metric.kind == "histogram":
                out[metric.name, key] = child.cumulative()[-1][1]
            else:
                out[metric.name, key] = child.value
    return out


def build(links: bool) -> MetaComm:
    return MetaComm(MetaCommConfig(
        organizations=("Marketing",),
        journal_capacity=CAPACITY,
        device_links=links,
        lock_witness=True,
    ))


@pytest.mark.parametrize("links", [False, True], ids=["inline", "links"])
def test_concurrent_writers_count_what_one_writer_counts(links):
    plans = [writer_ops(writer) for writer in range(1, WRITERS + 1)]
    assert sum(len(plan) for plan in plans) == UPDATES

    alone = build(links)
    try:
        for plan in plans:
            run(alone, plan)
        assert alone.consistent()
        expected = counts(alone)
    finally:
        alone.close()

    system = build(links)
    try:
        errors = []
        start = threading.Barrier(WRITERS)

        def writer(plan):
            start.wait()
            try:
                run(system, plan)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(plan,)) for plan in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert system.consistent()
        assert system.lock_witness.violations() == []

        registry = system.obs.registry
        emitted = registry.value("metacomm_journal_events_total")
        assert emitted > CAPACITY
        assert len(system.obs.journal) == CAPACITY
        assert registry.value("metacomm_journal_dropped_total") == emitted - CAPACITY
        assert counts(system) == expected
    finally:
        system.close()
