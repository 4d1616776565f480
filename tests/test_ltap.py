"""Tests for the LTAP gateway: triggers, locks, quiesce, connections."""

import threading

import pytest

from repro.ldap import (
    DN,
    BusyError,
    ChangeType,
        LdapConnection,
    LdapError,
    LdapServer,
    Modification,
    ResultCode,
    Scope,
    Session,
)
from repro.ltap import (
    SUPPRESS_TRIGGERS,
    ConnectionClosedError,
    ConnectionManager,
    LockManager,
    LtapGateway,
    Trigger,
    TriggerTiming,
)


@pytest.fixture
def server():
    s = LdapServer(["o=Lucent"])
    LdapConnection(s).add("o=Lucent", {"objectClass": "organization", "o": "Lucent"})
    return s


@pytest.fixture
def gateway(server):
    return LtapGateway(server, lock_timeout=0.2)


@pytest.fixture
def conn(gateway):
    return LdapConnection(gateway)


class TestTransparency:
    def test_gateway_looks_like_a_server(self, conn):
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        assert conn.get("cn=X,o=Lucent").first("cn") == "X"
        assert conn.search("o=Lucent", Scope.SUB, "(cn=X)")

    def test_errors_pass_through(self, conn):
        with pytest.raises(LdapError) as err:
            conn.delete("cn=Ghost,o=Lucent")
        assert err.value.code is ResultCode.NO_SUCH_OBJECT

    def test_reads_counted_not_triggered(self, gateway, conn):
        fired = []
        gateway.register_trigger(Trigger(action=fired.append))
        conn.search("o=Lucent")
        assert gateway.registry.value("metacomm_ltap_requests_total", kind="read") >= 1
        assert not fired


class TestTriggers:
    def test_after_trigger_sees_images(self, gateway, conn):
        events = []
        gateway.register_trigger(Trigger(action=events.append))
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        conn.modify("cn=X,o=Lucent", [Modification.replace("sn", "S")])
        add_event, mod_event = events
        assert add_event.change_type is ChangeType.ADD
        assert add_event.before is None
        assert add_event.after.first("cn") == "X"
        assert mod_event.before.has("sn") is False
        assert mod_event.after.first("sn") == "S"

    def test_modify_rdn_event_reports_new_entry(self, gateway, conn):
        events = []
        gateway.register_trigger(Trigger(action=events.append))
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        conn.modify_rdn("cn=X,o=Lucent", "cn=Y")
        rename = events[-1]
        assert rename.change_type is ChangeType.MODIFY_RDN
        assert str(rename.after.dn) == "cn=Y,o=Lucent"

    def test_before_trigger_vetoes(self, gateway, conn):
        def veto(event):
            raise LdapError(ResultCode.UNWILLING_TO_PERFORM, "vetoed by policy")

        gateway.register_trigger(
            Trigger(action=veto, timing=TriggerTiming.BEFORE)
        )
        with pytest.raises(LdapError) as err:
            conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        assert err.value.code is ResultCode.UNWILLING_TO_PERFORM
        assert not conn.exists("cn=X,o=Lucent")

    def test_trigger_scoping_by_base(self, gateway, conn):
        events = []
        conn.add("o=HR,o=Lucent", {"objectClass": "organization", "o": "HR"})
        gateway.register_trigger(Trigger(action=events.append, base="o=HR,o=Lucent"))
        conn.add("cn=In,o=HR,o=Lucent", {"objectClass": "person", "cn": "In"})
        conn.add("cn=Out,o=Lucent", {"objectClass": "person", "cn": "Out"})
        assert [str(e.dn) for e in events] == ["cn=In,o=HR,o=Lucent"]

    def test_trigger_scoping_by_filter(self, gateway, conn):
        events = []
        gateway.register_trigger(
            Trigger(action=events.append, filter="(objectClass=person)")
        )
        conn.add("cn=P,o=Lucent", {"objectClass": "person", "cn": "P"})
        conn.add("o=Org,o=Lucent", {"objectClass": "organization", "o": "Org"})
        assert len(events) == 1

    def test_trigger_scoping_by_op(self, gateway, conn):
        events = []
        gateway.register_trigger(
            Trigger(action=events.append, ops=frozenset({ChangeType.DELETE}))
        )
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        conn.delete("cn=X,o=Lucent")
        assert [e.change_type for e in events] == [ChangeType.DELETE]

    def test_unregister(self, gateway, conn):
        events = []
        gateway.register_trigger(Trigger(action=events.append, name="t"))
        gateway.unregister_trigger("t")
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        assert not events

    def test_duplicate_name_rejected(self, gateway):
        gateway.register_trigger(Trigger(action=lambda e: None, name="dup"))
        with pytest.raises(ValueError):
            gateway.register_trigger(Trigger(action=lambda e: None, name="dup"))

    def test_suppressed_session_fires_no_triggers(self, gateway, server):
        events = []
        gateway.register_trigger(Trigger(action=events.append))
        conn = LdapConnection(gateway)
        conn.session.state[SUPPRESS_TRIGGERS] = True
        conn.add("cn=Quiet,o=Lucent", {"objectClass": "person", "cn": "Quiet"})
        assert not events
        assert server.get("cn=Quiet,o=Lucent")

    def test_failed_update_fires_no_after_trigger(self, gateway, conn):
        events = []
        gateway.register_trigger(Trigger(action=events.append))
        with pytest.raises(LdapError):
            conn.delete("cn=Ghost,o=Lucent")
        assert not events


class TestLocking:
    def test_lock_held_during_trigger(self, gateway, conn):
        observed = []

        def action(event):
            observed.append(gateway.locks.is_locked(event.dn))

        gateway.register_trigger(Trigger(action=action))
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        assert observed == [True]
        assert not gateway.locks.is_locked(DN.parse("cn=X,o=Lucent"))

    def test_conflicting_update_blocks_until_timeout(self, gateway, conn):
        release = threading.Event()
        entered = threading.Event()

        def slow_action(event):
            entered.set()
            release.wait(2)

        gateway.register_trigger(
            Trigger(action=slow_action, ops=frozenset({ChangeType.ADD}))
        )

        t = threading.Thread(
            target=lambda: conn.add(
                "cn=X,o=Lucent", {"objectClass": "person", "cn": "X"}
            )
        )
        t.start()
        assert entered.wait(2)
        other = LdapConnection(gateway)
        with pytest.raises(LdapError) as err:
            other.modify("cn=X,o=Lucent", [Modification.replace("sn", "S")])
        assert err.value.code is ResultCode.BUSY
        release.set()
        t.join()

    def test_same_session_reenters_lock(self, gateway, server):
        # The UM pattern: the trigger action updates the same entry using
        # the triggering session, re-entering the held lock.
        inner_done = []

        def action(event):
            if event.change_type is ChangeType.ADD:
                inner = LdapConnection(gateway)
                inner.session = event.session  # re-use the locked session
                inner.modify(event.dn, [Modification.replace("sn", "set-by-um")])
                inner_done.append(True)

        gateway.register_trigger(Trigger(action=action))
        conn = LdapConnection(gateway)
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
        assert inner_done
        assert server.get("cn=X,o=Lucent").first("sn") == "set-by-um"

    def test_independent_entries_do_not_contend(self, gateway):
        barrier = threading.Barrier(2, timeout=2)

        def action(event):
            barrier.wait()  # both triggers must be inside simultaneously

        gateway.register_trigger(Trigger(action=action))
        errors = []

        def add(name):
            try:
                LdapConnection(gateway).add(
                    f"cn={name},o=Lucent", {"objectClass": "person", "cn": name}
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=add, args=(n,)) for n in ("A", "B")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestQuiesce:
    def test_quiesce_blocks_other_sessions(self, gateway, conn):
        owner = Session()
        with gateway.quiesce(owner):
            with pytest.raises(LdapError) as err:
                conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})
            assert err.value.code is ResultCode.BUSY
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X"})

    def test_quiesce_owner_may_update(self, gateway):
        owner_conn = LdapConnection(gateway)
        with gateway.quiesce(owner_conn.session):
            owner_conn.add("cn=S,o=Lucent", {"objectClass": "person", "cn": "S"})
        assert owner_conn.exists("cn=S,o=Lucent")

    def test_reads_allowed_during_quiesce(self, gateway, conn):
        with gateway.quiesce(Session()):
            assert conn.search("o=Lucent")

    def test_nested_quiesce_rejected(self, gateway):
        with gateway.quiesce(Session()):
            with pytest.raises(BusyError):
                gateway.quiesce(Session(), timeout=0.05)

    def test_release_by_non_owner_rejected(self, gateway):
        with gateway.quiesce(Session()):
            with pytest.raises(RuntimeError):
                gateway.release_quiesce(Session())


class TestLockManagerUnit:
    def test_reentrant_same_owner(self):
        locks = LockManager()
        dn = DN.parse("cn=X,o=L")
        owner = object()
        locks.acquire(dn, owner)
        locks.acquire(dn, owner)
        locks.release(dn, owner)
        assert locks.is_locked(dn)
        locks.release(dn, owner)
        assert not locks.is_locked(dn)

    def test_timeout_raises_busy(self):
        locks = LockManager(default_timeout=0.05)
        dn = DN.parse("cn=X,o=L")
        locks.acquire(dn, "a")
        with pytest.raises(BusyError):
            locks.acquire(dn, "b")

    def test_release_not_held_raises(self):
        locks = LockManager()
        with pytest.raises(RuntimeError):
            locks.release(DN.parse("cn=X,o=L"), "a")

    def test_waiter_proceeds_after_release(self):
        locks = LockManager(default_timeout=2)
        dn = DN.parse("cn=X,o=L")
        locks.acquire(dn, "a")
        got = threading.Event()

        def waiter():
            locks.acquire(dn, "b")
            got.set()

        t = threading.Thread(target=waiter)
        t.start()
        locks.release(dn, "a")
        assert got.wait(2)
        t.join()
        assert locks.holder(dn) == "b"


class TestConnections:
    def test_single_shot_allows_one_event(self):
        seen = []
        manager = ConnectionManager(lambda e, c: seen.append((e, c)))
        conn = manager.open()
        conn.send("event-1")  # type: ignore[arg-type]
        with pytest.raises(ConnectionClosedError):
            conn.send("event-2")  # type: ignore[arg-type]
        assert len(seen) == 1
        assert conn.closed

    def test_persistent_allows_sequences(self):
        seen = []
        manager = ConnectionManager(lambda e, c: seen.append(e))
        with manager.open(persistent=True) as conn:
            for i in range(5):
                conn.send(f"event-{i}")  # type: ignore[arg-type]
        assert len(seen) == 5
        assert conn.closed
        with pytest.raises(ConnectionClosedError):
            conn.send("late")  # type: ignore[arg-type]


class TestLibraryMode:
    def test_gateway_mode_reads_cost_um_nothing(self, server):
        work = []
        gateway = LtapGateway(server, library_mode=False, read_tax=lambda: work.append(1))
        LdapConnection(gateway).search("o=Lucent")
        assert not work

    def test_library_mode_reads_tax_the_um(self, server):
        work = []
        gateway = LtapGateway(server, library_mode=True, read_tax=lambda: work.append(1))
        LdapConnection(gateway).search("o=Lucent")
        assert len(work) == 1
