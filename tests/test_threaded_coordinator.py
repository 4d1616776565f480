"""Tests for the threaded coordinator mode.

Section 4.4 describes the UM as having a *main thread* iterating the
global queue.  In threaded mode LTAP's trigger hands the queued descriptor
to the coordinator thread and blocks until it signals completion, so the
entry-lock semantics are identical to synchronous mode.
"""

import threading

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import Modification
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


@pytest.fixture
def system():
    # lock_witness=True wraps every subsystem lock in an order-recording
    # proxy (repro.obs.lockwitness); the teardown assertion makes any
    # acquisition-order reversal observed during a threaded test fail
    # that test rather than pass silently.
    system = MetaComm(
        MetaCommConfig(organizations=("Marketing",), lock_witness=True)
    )
    system.um.start()
    yield system
    system.um.stop()
    assert system.lock_witness.violations() == []


class TestThreadedMode:
    def test_start_stop_idempotent(self, system):
        assert system.um.threaded
        system.um.start()  # second start is a no-op
        assert system.um.threaded
        system.um.stop()
        assert not system.um.threaded
        system.um.stop()  # second stop is a no-op
        system.um.start()  # fixture teardown needs a thread to stop

    def test_ldap_path(self, system):
        conn = system.connection()
        conn.add(
            "cn=A B,o=Marketing,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        assert system.pbx().contains("4100")
        assert system.messaging.contains("+1 908 582 4100")
        assert system.consistent()

    def test_ddu_path(self, system):
        system.terminal().execute('add station 4200 name "Smith, Pat"')
        (entry,) = system.find_person("(definityExtension=4200)")
        assert entry.first("cn") == "Pat Smith"
        assert system.consistent()

    def test_coordinator_failure_surfaces_to_caller(self, system):

        # A poisoned processing step propagates back to the blocked client.
        def explode(item, session):
            raise RuntimeError("coordinator exploded")

        system.um._process = explode
        with pytest.raises(RuntimeError, match="coordinator exploded"):
            system.connection().add(
                "cn=X,o=Marketing,o=Lucent",
                person_attrs("X", "X", definityExtension="4300"),
            )

    def test_coordinator_failure_keeps_exception_type(self, system):
        # The original exception object crosses the thread boundary, not a
        # wrapped copy — callers can catch the specific type.
        marker = ValueError("bad extension digits")

        def explode(item, session):
            raise marker

        system.um._process = explode
        with pytest.raises(ValueError) as excinfo:
            system.connection().add(
                "cn=Y,o=Marketing,o=Lucent",
                person_attrs("Y", "Y", definityExtension="4301"),
            )
        assert excinfo.value is marker

    def test_coordinator_timeout_surfaces_to_caller(self, system):
        import time

        # A wedged sequence must not hang the blocked trigger forever:
        # after coordinator_timeout the client gets a RuntimeError.
        system.um.coordinator_timeout = 0.05

        def wedged(item, session):
            time.sleep(0.5)

        system.um._process = wedged
        with pytest.raises(RuntimeError, match="did not complete"):
            system.connection().add(
                "cn=Z,o=Marketing,o=Lucent",
                person_attrs("Z", "Z", definityExtension="4302"),
            )

    def test_concurrent_clients(self, system):
        errors = []

        def client(i):
            try:
                conn = system.connection()
                conn.add(
                    f"cn=U{i},o=Marketing,o=Lucent",
                    person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
                )
                conn.modify(
                    f"cn=U{i},o=Marketing,o=Lucent",
                    [Modification.replace("definityRoom", f"R{i}")],
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert system.pbx().size() == 6
        assert system.consistent()

    def test_locks_held_while_coordinator_works(self, system):
        observed = []
        original_process = system.um._process

        def spying(item, session):
            observed.append(system.gateway.locks.held_count() > 0)
            return original_process(item, session)

        system.um._process = spying
        system.connection().add(
            "cn=A B,o=Marketing,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        assert observed and all(observed)

    def test_sync_works_in_threaded_mode(self, system):
        system.pbx()._records["4500"] = {"Extension": "4500", "Name": "Lone, Sam"}
        report = system.sync.synchronize("definity")
        assert report.added == 1
        assert system.consistent()


class TestShardedContention:
    """The sharded queue's claim/wait_turn/finish contract under arbitrary
    thread interleavings: no double-claims, no skipped serials, and a
    deterministic barrier drain (docs/CONCURRENCY.md)."""

    @staticmethod
    def _queue(lanes=2):
        from repro.core import UpdateQueue
        from tests.test_lane_routing import ScriptedPlan

        return UpdateQueue(ScriptedPlan(), lanes=lanes)

    @staticmethod
    def _descriptor(key):
        from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp

        return UpdateDescriptor(
            op=UpdateOp.ADD, source="ldap", key=key, new={"cn": [key]}
        )

    def test_one_lane_never_runs_two_items_at_once(self):
        import time

        queue = self._queue(lanes=2)
        lock = threading.Lock()
        active: dict[str, int] = {}
        overlaps = []
        processed: dict[str, list[int]] = {}
        errors = []

        def worker(i):
            try:
                for j in range(8):
                    # All threads fight over two lane keys: heavy
                    # same-lane contention with cross-lane noise.
                    item = queue.claim(self._descriptor(f"k{i % 2}"))
                    assert queue.wait_turn(item, timeout=5.0)
                    with lock:
                        active[item.lane] = active.get(item.lane, 0) + 1
                        if active[item.lane] > 1:
                            overlaps.append(item.serial)
                        processed.setdefault(item.lane, []).append(item.serial)
                    time.sleep(0.001)  # widen the race window
                    with lock:
                        active[item.lane] -= 1
                    queue.finish(item)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert overlaps == []
        # Every claimed serial ran exactly once, in FIFO order per lane.
        all_serials = [s for lane in processed.values() for s in lane]
        assert sorted(all_serials) == list(range(1, 6 * 8 + 1))
        for serials in processed.values():
            assert serials == sorted(serials)

    def test_barrier_drain_is_deterministic(self):
        queue = self._queue(lanes=3)
        lock = threading.Lock()
        events = []  # (phase, serial, is_serial_lane), in wall order
        errors = []

        def run(item):
            from repro.core.queue import SERIAL_LANE

            try:
                assert queue.wait_turn(item, timeout=5.0)
                with lock:
                    events.append(
                        ("start", item.serial, item.lane == SERIAL_LANE)
                    )
                with lock:
                    events.append(
                        ("end", item.serial, item.lane == SERIAL_LANE)
                    )
                queue.finish(item)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                queue.finish(item)

        # Interleave lane traffic with serial items: l l S l l S l.
        keys = ["a", "b", "serial:unclaimed", "c", "a", "serial:ddu", "b"]
        items = [self._descriptor(k) for k in keys]
        claimed = [queue.claim(d) for d in items]
        threads = [
            threading.Thread(target=run, args=(item,)) for item in claimed
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        serial_serials = [
            c.serial for c, k in zip(claimed, keys) if k.startswith("serial:")
        ]
        done_before: dict[int, set[int]] = {}
        finished: set[int] = set()
        for phase, serial, _is_serial in events:
            if phase == "start":
                done_before[serial] = set(finished)
            else:
                finished.add(serial)
        for s in serial_serials:
            # Everything enqueued before the serial item finished first...
            assert {c.serial for c in claimed if c.serial < s} <= done_before[s]
            # ...and nothing enqueued after it started until it was done.
            for later in (c.serial for c in claimed if c.serial > s):
                assert s in done_before[later]


class TestShardedThreadedMode:
    """The coordinator pool behaves like the single coordinator for the
    client-facing contract: failures and timeouts still surface."""

    @pytest.fixture
    def system(self):
        from repro.core import PbxConfig

        system = MetaComm(
            MetaCommConfig(
                pbxes=[PbxConfig(f"pbx-{i}", (str(41 + i),)) for i in range(2)],
                coordinator_lanes=2,
            )
        )
        system.um.start()
        yield system
        system.um.stop()

    def test_start_stop(self, system):
        assert system.um.threaded and system.um.queue.lanes == 2
        system.um.stop()
        assert not system.um.threaded
        system.um.start()

    def test_failure_surfaces_to_the_blocked_client(self, system):
        marker = ValueError("bad extension digits")

        def explode(item, session):
            raise marker

        system.um._process = explode
        with pytest.raises(ValueError) as excinfo:
            system.connection().add(
                "cn=X,o=Lucent",
                person_attrs("X", "X", definityExtension="4100"),
            )
        assert excinfo.value is marker

    def test_timeout_surfaces_to_the_blocked_client(self, system):
        import time

        system.um.coordinator_timeout = 0.05

        def wedged(item, session):
            time.sleep(0.5)

        system.um._process = wedged
        with pytest.raises(RuntimeError, match="did not complete"):
            system.connection().add(
                "cn=Z,o=Lucent",
                person_attrs("Z", "Z", definityExtension="4200"),
            )

    def test_locks_held_while_a_lane_works(self, system):
        observed = []
        original_process = system.um._process

        def spying(item, session):
            observed.append(system.gateway.locks.held_count() > 0)
            return original_process(item, session)

        system.um._process = spying
        system.connection().add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        assert observed and all(observed)
