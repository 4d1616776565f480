"""Journal invariants: each lifecycle fact of an update is journaled once.

Over the golden telemetry scenario (both of its configurations) and a
four-lane partitioned fleet fed by concurrent clients, the journal must
show:

* every ``update.accepted`` of a journey closes in exactly one
  ``update.done`` carrying its serial;
* every device named in an ``update.done``'s ``devices`` has exactly one
  ``device.commit`` or ``device.failure`` under its trace — except the
  devices past an inline fan-out's abort point, which are never reached
  and have none.

So a plain add journals ``3 + N`` events for ``N`` planned devices:
``update.accepted``, ``update.claimed``, one device outcome each and
``update.done``.  And the ``queue.wait`` stage of a journey is the wait
the queue measured, the ``waited`` of its ``update.claimed``.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.obs.events import (
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    SEQUENCE_ABORTED,
    UPDATE_ACCEPTED,
    UPDATE_CLAIMED,
    UPDATE_DONE,
)
from repro.obs.trace import traces

from .test_telemetry_golden import CONFIGS, person_attrs, run_scenario


def check_invariants(events) -> int:
    """Assert the invariants over ``events``; returns the journeys that
    ran a sequence, so a caller can tell the check was not vacuous."""
    # A claim made straight on the queue (the golden scenario holds its
    # lane that way) belongs to no journey, so it has no trace id.
    accepted = [
        e.attributes["serial"]
        for e in events
        if e.kind == UPDATE_ACCEPTED and e.trace_id is not None
    ]
    assert accepted
    closing = [e for e in events if e.kind == UPDATE_DONE]
    closed = Counter(e.attributes["serial"] for e in closing)
    for serial in accepted:
        assert closed[serial] == 1, serial

    sequences = 0
    by_trace = {view.trace_id: view.events for view in traces(events)}
    for done in closing:
        attributes = done.attributes
        if "devices" not in attributes:
            assert "mode" not in attributes and "supplemental" not in attributes
            continue
        sequences += 1
        mine = by_trace[done.trace_id]
        outcomes = Counter(
            e.attributes["device"]
            for e in mine
            if e.kind in (DEVICE_COMMIT, DEVICE_FAILURE)
        )
        devices = attributes["devices"]
        assert set(outcomes) <= set(devices), done.trace_id
        reached = len(devices)
        aborted = [e for e in mine if e.kind == SEQUENCE_ABORTED]
        if aborted and attributes["mode"] == "serial":
            reached = devices.index(aborted[0].attributes["device"]) + 1
        for index, device in enumerate(devices):
            expected = 1 if index < reached else 0
            assert outcomes[device] == expected, (done.trace_id, device)
    return sequences


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_scenario_journals_each_fact_once(name):
    system = MetaComm(MetaCommConfig(lock_witness=True, **CONFIGS[name]))
    try:
        run_scenario(system)
        assert check_invariants(system.obs.journal.events()) >= 6
        assert system.lock_witness.ok
    finally:
        system.close()


def test_partitioned_lanes_journal_each_fact_once():
    system = MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i}", (str(41 + i),)) for i in range(4)],
            coordinator_lanes=4,
            lock_witness=True,
        )
    )
    errors = []

    def client(i):
        try:
            conn = system.connection()
            for j in range(3):
                conn.add(
                    f"cn=Ann U{i}x{j},o=Lucent",
                    person_attrs(f"Ann U{i}x{j}", f"U{i}x{j}", f"{41 + i}{j:02d}"),
                )
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        # A DDU and a rename take the serial lane, behind the barrier.
        system.terminal("pbx-0").execute("change station 4100 room 2B-110")
        system.connection().modify_rdn("cn=Ann U1x0,o=Lucent", "cn=Bo U1x0")
        assert check_invariants(system.obs.journal.events()) == 14
        assert system.consistent()
        assert system.lock_witness.ok
    finally:
        system.close()


@pytest.mark.parametrize("links", [False, True], ids=["inline", "links"])
def test_one_add_journals_three_plus_one_per_device(links):
    system = MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i + 1}", ("4",)) for i in range(4)],
            device_links=links,
        )
    )
    try:
        boot = len(system.obs.journal)
        system.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", "4100")
        )
        events = system.obs.journal.events()[boot:]
        assert [e.kind for e in events] == [
            UPDATE_ACCEPTED,
            UPDATE_CLAIMED,
            *[DEVICE_COMMIT] * 5,
            UPDATE_DONE,
        ]
        done = events[-1].attributes
        assert done["devices"] == ["pbx-1", "pbx-2", "pbx-3", "pbx-4", "messaging"]
        assert done["mode"] == ("links" if links else "serial")
        assert done["supplemental"] > 0
    finally:
        system.close()


def test_queue_wait_stage_is_the_claimed_wait():
    system = MetaComm(MetaCommConfig())
    try:
        system.connection().add(
            "cn=A B,o=Lucent", person_attrs("A B", "B", "4100")
        )
        system.terminal().execute("change station 4100 room 2B-110")
        views = traces(system.obs.journal.events())
        assert [view.name for view in views] == ["update", "ddu"]
        for view in views:
            (claimed,) = [e for e in view.events if e.kind == UPDATE_CLAIMED]
            assert round(view.stages["queue.wait"], 6) == (
                claimed.attributes["waited"]
            )
    finally:
        system.close()
