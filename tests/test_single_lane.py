"""The paper's single-lane queue path (``coordinator_lanes=1``).

Section 4.4: the UM's global queue "enforces a serialization order".
With one lane the update queue is that queue: whichever thread claims a
sequence — a client thread or a DDU listener — it runs only once every
earlier serial has finished.  These tests pin that
contract end to end, plus the lane-labelled journal events and the
admission control the single lane shares with the sharded configuration.
"""

import threading
import time

import pytest

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.ldap import LdapError
from repro.ldap.result import ResultCode
from repro.obs.events import LANE_BARRIER, UPDATE_ACCEPTED, UPDATE_CLAIMED
from repro.schemas import PERSON_CLASSES

QUEUE_EVENTS = (UPDATE_ACCEPTED, UPDATE_CLAIMED, LANE_BARRIER)


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


def two_pbx_system(**overrides):
    return MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig("pbx-1", ("41",)), PbxConfig("pbx-2", ("42",))],
            **overrides,
        )
    )


def spy_on_runs(system):
    """Record (phase, key) around every ``pipeline.run`` and track how
    many sequences are inside it at once."""
    lock = threading.Lock()
    state = {"active": 0, "peak": 0, "log": []}
    original = system.um.pipeline.run

    def spying(descriptor, *args, **kwargs):
        with lock:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
            state["log"].append(("start", descriptor.key))
        try:
            return original(descriptor, *args, **kwargs)
        finally:
            with lock:
                state["active"] -= 1
                state["log"].append(("end", descriptor.key))

    system.um.pipeline.run = spying
    return state


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def test_sync_clients_never_overlap_in_the_pipeline():
    system = two_pbx_system()
    # Slow links widen the window in which two sequences could overlap.
    for device in (*system.pbxes.values(), system.messaging):
        device.link_latency = 0.003
    state = spy_on_runs(system)
    errors = []

    def client(i):
        try:
            conn = system.connection()
            for j in range(3):
                conn.add(
                    f"cn=U{i}-{j},o=Lucent",
                    person_attrs(
                        f"U{i}-{j}", "U", definityExtension=f"41{i}{j}"
                    ),
                )
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    try:
        assert errors == []
        assert state["peak"] == 1
        assert system.pbxes["pbx-1"].size() == 12
        assert system.consistent()
    finally:
        system.close()


def test_one_update_emits_accepted_and_claimed_on_lane_zero():
    system = two_pbx_system()
    try:
        system.connection().add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        events = [
            e for e in system.obs.journal.events() if e.kind in QUEUE_EVENTS
        ]
        assert [e.kind for e in events] == [UPDATE_ACCEPTED, UPDATE_CLAIMED]
        assert {e.attributes["lane"] for e in events} == {"0"}
        registry = system.obs.registry
        assert registry.value("metacomm_queue_enqueued_total") == 1
        # Nothing is ever proven commuting, so there is no barrier to time,
        # and per-lane series would only repeat the aggregates.
        assert registry.get("metacomm_queue_barrier_seconds") is None
        assert registry.get("metacomm_queue_lane_enqueued_total") is None
    finally:
        system.close()


def test_depth_limit_answers_server_busy():
    system = two_pbx_system(device_links=True, lane_depth_limit=1)
    link = system.links.link("pbx-1")
    # Safety net: never leave the first client stuck if an assertion fails.
    release = threading.Timer(3.0, link.resume)
    release.start()

    def add(ext):
        system.connection().add(
            f"cn=E {ext},o=Lucent",
            person_attrs(f"E {ext}", ext, definityExtension=ext),
        )

    try:
        link.pause()
        first = threading.Thread(target=add, args=("4101",))
        first.start()
        wait_until(
            lambda: link.snapshot()["pending"] >= 1,
            message="first update stalled in fan-out",
        )
        with pytest.raises(LdapError) as excinfo:
            add("4102")
        assert excinfo.value.code is ResultCode.BUSY
        assert system.obs.registry.value("metacomm_queue_admission_rejected_total") == 1
        link.resume()
        first.join(timeout=10)
        assert not first.is_alive()
        assert system.pbxes["pbx-1"].contains("4101")
        assert not system.pbxes["pbx-1"].contains("4102")
        assert system.consistent()
    finally:
        release.cancel()
        link.resume()
        system.close()


def test_ddu_during_links_fanout_waits_its_turn():
    system = two_pbx_system(device_links=True)
    # Far below the default: a DDU wedged behind the in-flight sequence
    # would surface as "lane 0 barrier wait gave up on serial 2".
    system.um.coordinator_timeout = 5.0
    state = spy_on_runs(system)
    link = system.links.link("pbx-1")
    errors = []

    def client():
        try:
            system.connection().add(
                "cn=A B,o=Lucent",
                person_attrs("A B", "B", definityExtension="4100"),
            )
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    release = threading.Timer(0.3, link.resume)
    try:
        link.pause()
        writer = threading.Thread(target=client)
        writer.start()
        wait_until(
            lambda: link.snapshot()["pending"] >= 1,
            message="sequence stalled in fan-out",
        )
        release.start()
        # The DDU is delivered while the add is still in its fan-out: its
        # own sequence claims the next serial and runs once the add ends.
        system.terminal("pbx-2").execute('add station 4200 name "Smith, Pat"')
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert errors == []
        (entry,) = system.find_person("(definityExtension=4200)")
        assert entry.first("cn") == "Pat Smith"
        assert state["peak"] == 1
        assert state["log"] == [
            ("start", "cn=A B,o=Lucent"),
            ("end", "cn=A B,o=Lucent"),
            ("start", str(entry.dn)),
            ("end", str(entry.dn)),
        ]
        assert system.consistent()
    finally:
        release.cancel()
        link.resume()
        system.close()
