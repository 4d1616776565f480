"""Concurrent clients on the Update Manager's coordinator.

Section 4.4 describes the UM's coordinator iterating the global queue,
whose order "enforces a serialization order".  Here that order comes from
the queue's serial counter and barrier protocol (claim → wait_turn →
finish), run by the client thread that claimed each update: LTAP's
trigger blocks in ``wait_turn`` until its sequence may run, runs it with
the entry lock held, and surfaces any failure to its own client.
"""

import threading

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import Modification
from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


@pytest.fixture
def system():
    # lock_witness=True wraps every subsystem lock in an order-recording
    # proxy (repro.obs.lockwitness); the teardown assertion makes any
    # acquisition-order reversal observed during a concurrent test fail
    # that test rather than pass silently.
    system = MetaComm(
        MetaCommConfig(organizations=("Marketing",), lock_witness=True)
    )
    yield system
    system.close()
    assert system.lock_witness.violations() == []


class TestThreadedMode:
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

        # A poisoned processing step propagates back to the client.
        def explode(item, session):
            raise RuntimeError("coordinator exploded")

        system.um._process = explode
        with pytest.raises(RuntimeError, match="coordinator exploded"):
            system.connection().add(
                "cn=X,o=Marketing,o=Lucent",
                person_attrs("X", "X", definityExtension="4300"),
            )

    def test_coordinator_failure_keeps_exception_type(self, system):
        # The original exception object reaches the client, not a wrapped
        # copy — callers can catch the specific type.
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

    def test_turn_timeout_names_lane_and_serial(self, system):
        # A claim parked ahead of the client never finishes in time: the
        # client's wait for its turn gives up after coordinator_timeout
        # and says which lane and serial were stuck.
        queue = system.um.queue
        parked = queue.claim(
            UpdateDescriptor(
                UpdateOp.ADD, "ldap", "cn=parked", new={"cn": ["parked"]}
            )
        )
        system.um.coordinator_timeout = 0.05
        with pytest.raises(
            RuntimeError,
            match=f"lane 0 barrier wait gave up on serial {parked.serial + 1}$",
        ):
            system.connection().add(
                "cn=Z,o=Marketing,o=Lucent",
                person_attrs("Z", "Z", definityExtension="4302"),
            )
        # The client finished its abandoned serial; the parked claim is
        # the lane's head, and the lane drains once it finishes.
        assert len(queue) == 1
        queue.finish(parked)
        assert len(queue) == 0
        system.um.coordinator_timeout = 5.0
        system.connection().add(
            "cn=Y,o=Marketing,o=Lucent",
            person_attrs("Y", "Y", definityExtension="4303"),
        )
        assert system.pbx().contains("4303")
        assert len(queue) == 0

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


    def test_finish_wakes_every_releasable_waiter(self):
        # finish() notifies only each lane's head.  With the backstop
        # poll far above the test's bound, a head it failed to wake would
        # sleep through it: every wait must end on a notify.
        import sys

        queue = self._queue(lanes=3)
        queue.POLL = 60.0
        keys = ["a", "b", "c", "serial:unclaimed", "a", "d"]
        lock = threading.Lock()
        ran: dict[str, list[int]] = {}
        errors = []

        def worker(i):
            try:
                for j in range(6):
                    item = queue.claim(self._descriptor(keys[(i + j) % 6]))
                    assert queue.wait_turn(item, timeout=20.0)
                    with lock:
                        ran.setdefault(item.lane, []).append(item.serial)
                    queue.finish(item)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15.0)
                assert not t.is_alive(), "a waiter missed its wake-up"
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        serials = sorted(s for lane in ran.values() for s in lane)
        assert serials == list(range(1, 8 * 6 + 1))
        for lane in ran.values():
            assert lane == sorted(lane)
        assert len(queue) == 0


class TestShardedThreadedMode:
    """Clients on a two-lane coordinator keep the client-facing contract
    of the single lane: failures surface to the blocked client."""

    @pytest.fixture
    def system(self):
        from repro.core import PbxConfig

        system = MetaComm(
            MetaCommConfig(
                pbxes=[PbxConfig(f"pbx-{i}", (str(41 + i),)) for i in range(2)],
                coordinator_lanes=2,
            )
        )
        yield system
        system.close()

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

    def test_locks_held_while_a_lane_runs(self, system):
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
