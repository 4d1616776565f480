"""Unit tests for the smaller core components: the error log, the
single-lane update queue, and ACL decision corners."""

import pytest

from repro.core.errorlog import ErrorLog
from repro.core.queue import UpdateQueue
from repro.ldap import DN, LdapConnection, LdapServer, Session
from repro.lexpress import UpdateDescriptor, UpdateOp
from repro.ltap import AccessControl, AclRule, Rights, Subject


@pytest.fixture
def server():
    s = LdapServer(["o=L"])
    LdapConnection(s).add("o=L", {"objectClass": "organization", "o": "L"})
    return s


class TestErrorLog:
    def test_base_created_under_suffix(self, server):
        log = ErrorLog(server, "o=L")
        assert server.backend.contains(DN.parse("ou=errors,o=L"))

    def test_record_creates_browsable_entry(self, server):
        log = ErrorLog(server, "o=L")
        note = log.record("pbx-west", "translation table full", context="ctx")
        assert note.target == "pbx-west"
        (entry,) = log.entries()
        assert entry.first("metacommError") == "translation table full"
        assert entry.first("metacommErrorTarget") == "pbx-west"
        assert entry.first("description") == "ctx"

    def test_errors_ordered_and_unique(self, server):
        log = ErrorLog(server, "o=L")
        for i in range(3):
            log.record("d", f"error {i}")
        names = [e.first("cn") for e in log.entries()]
        assert names == sorted(names)
        assert len(set(names)) == 3

    def test_admin_listeners(self, server):
        log = ErrorLog(server, "o=L")
        pages = []
        log.add_admin_listener(pages.append)
        log.record("mp", "boom")
        assert len(pages) == 1
        assert pages[0].message == "boom"
        assert pages[0].dn.startswith("cn=error-")

    def test_clear(self, server):
        log = ErrorLog(server, "o=L")
        log.record("d", "x")
        log.record("d", "y")
        assert len(log) == 2
        assert log.clear() == 2
        assert len(log) == 0

    def test_long_messages_truncated(self, server):
        log = ErrorLog(server, "o=L")
        log.record("d", "m" * 2000)
        (entry,) = log.entries()
        assert len(entry.first("metacommError")) == 512

    def test_two_logs_share_base(self, server):
        ErrorLog(server, "o=L")
        ErrorLog(server, "o=L")  # second instantiation must not fail


class TestSingleLaneQueue:
    """The paper's global queue: one lane, no routing plan."""

    @staticmethod
    def descriptor(key):
        return UpdateDescriptor(
            UpdateOp.ADD, "ldap", key, new={"cn": [key]}
        )

    @staticmethod
    def run(queue, item):
        assert queue.wait_turn(item, timeout=0.5)
        queue.finish(item)

    def test_one_lane_labelled_zero(self):
        queue = UpdateQueue()
        assert queue.labels == ("0",)
        assert queue.claim(self.descriptor("a")).lane == "0"

    def test_lanes_need_a_routing_plan(self):
        with pytest.raises(ValueError, match="routing plan"):
            UpdateQueue(lanes=2)

    def test_fifo_order(self):
        queue = UpdateQueue()
        items = [queue.claim(self.descriptor(key)) for key in "abc"]
        # Only the oldest outstanding claim may run.
        assert not queue.wait_turn(items[1], timeout=0.01)
        order = []
        for item in items:
            assert queue.wait_turn(item, timeout=0.5)
            order.append(item.descriptor.key)
            queue.finish(item)
        assert order == ["a", "b", "c"]

    def test_serials_strictly_increase(self):
        queue = UpdateQueue()
        serials = [queue.claim(self.descriptor(str(i))).serial for i in range(5)]
        assert serials == [1, 2, 3, 4, 5]

    def test_len_and_peek(self):
        queue = UpdateQueue()
        assert len(queue) == 0
        assert queue.peek_serial() is None
        item = queue.claim(self.descriptor("x"))
        assert len(queue) == 1
        assert queue.peek_serial() == item.serial
        self.run(queue, item)
        assert len(queue) == 0

    def test_statistics(self):
        queue = UpdateQueue()
        item = queue.claim(self.descriptor("x"))
        assert queue.statistics == {"enqueued": 1, "processed": 0}
        self.run(queue, item)
        assert queue.statistics == {"enqueued": 1, "processed": 1}

    def test_depth_gauge_tracks_transitions(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        queue = UpdateQueue(registry=registry)
        assert registry.value("metacomm_queue_depth") == 0
        first = queue.claim(self.descriptor("a"))
        second = queue.claim(self.descriptor("b"))
        assert registry.value("metacomm_queue_depth") == 2
        self.run(queue, first)
        assert registry.value("metacomm_queue_depth") == 1
        self.run(queue, second)
        assert registry.value("metacomm_queue_depth") == 0

    def test_oldest_age_gauge(self):
        import time

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        queue = UpdateQueue(registry=registry)
        assert queue.oldest_age() == 0.0
        first = queue.claim(self.descriptor("a"))
        time.sleep(0.01)
        age = queue.refresh_staleness()
        assert age >= 0.01
        assert registry.value("metacomm_queue_oldest_age_seconds") == age
        # Age follows the *oldest* item: a second claim doesn't reset it.
        second = queue.claim(self.descriptor("b"))
        assert queue.oldest_age() >= age
        self.run(queue, first)
        self.run(queue, second)
        # Drained: the gauge drops back to zero on the transition.
        assert queue.oldest_age() == 0.0
        assert registry.value("metacomm_queue_oldest_age_seconds") == 0.0

    def test_last_serial_tracks_claims(self):
        queue = UpdateQueue()
        assert queue.last_serial == 0
        queue.claim(self.descriptor("a"))
        assert queue.last_serial == 1
        queue.claim(self.descriptor("b"))
        assert queue.last_serial == 2

    def test_journal_events_per_sequence(self):
        from repro.obs import EventJournal

        journal = EventJournal()
        queue = UpdateQueue(journal=journal)
        self.run(queue, queue.claim(self.descriptor("a"), trace="trace-9"))
        self.run(queue, queue.claim(self.descriptor("b")))
        kinds = [e.kind for e in journal.events()]
        assert kinds == [
            "update.accepted",
            "update.claimed",
            "update.accepted",
            "update.claimed",
        ]
        first = journal.events()[0]
        assert first.trace_id == "trace-9"
        assert first.attributes["serial"] == 1
        assert first.attributes["op"] == "add"
        assert first.attributes["lane"] == "0"


class TestAclDecisions:
    def test_default_allow_and_deny(self):
        target = DN.parse("cn=X,o=L")
        assert AccessControl(default_allow=True).decide(
            Session(), Rights.READ, target
        )
        assert not AccessControl(default_allow=False).decide(
            Session(), Rights.READ, target
        )

    def test_rights_mismatch_skips_rule(self):
        acl = AccessControl(default_allow=False)
        acl.allow(Subject.ANYONE, rights=Rights.READ)
        assert not acl.decide(Session(), Rights.WRITE, DN.parse("cn=X,o=L"))

    def test_first_match_wins_over_later_allow(self):
        acl = AccessControl(default_allow=False)
        acl.deny(Subject.ANONYMOUS, rights=Rights.READ)
        acl.allow(Subject.ANYONE, rights=Rights.READ)
        anonymous = Session()
        bound = Session()
        bound.bound_dn = DN.parse("cn=U,o=L")
        target = DN.parse("cn=X,o=L")
        assert not acl.decide(anonymous, Rights.READ, target)
        assert acl.decide(bound, Rights.READ, target)

    def test_attribute_scoped_write_rule(self):
        acl = AccessControl(default_allow=False)
        acl.allow(Subject.AUTHENTICATED, rights=Rights.WRITE,
                  attributes=("mail", "telephoneNumber"))
        session = Session()
        session.bound_dn = DN.parse("cn=U,o=L")
        target = DN.parse("cn=X,o=L")
        assert acl.decide(session, Rights.WRITE, target, frozenset({"mail"}))
        assert not acl.decide(
            session, Rights.WRITE, target, frozenset({"mail", "sn"})
        )

    def test_subtree_base_scoping(self):
        acl = AccessControl(default_allow=False)
        acl.allow(Subject.ANYONE, rights=Rights.READ, base="o=Open,o=L")
        session = Session()
        assert acl.decide(session, Rights.READ, DN.parse("cn=X,o=Open,o=L"))
        assert not acl.decide(session, Rights.READ, DN.parse("cn=X,o=L"))

    def test_specific_dn_subject(self):
        acl = AccessControl(default_allow=False)
        acl.allow("cn=root,o=L", rights=Rights.ALL)
        root, other = Session(), Session()
        root.bound_dn = DN.parse("cn=root,o=L")
        other.bound_dn = DN.parse("cn=other,o=L")
        target = DN.parse("cn=X,o=L")
        assert acl.decide(root, Rights.WRITE, target)
        assert not acl.decide(other, Rights.WRITE, target)

    def test_self_subject(self):
        acl = AccessControl(default_allow=False)
        acl.allow(Subject.SELF, rights=Rights.WRITE)
        session = Session()
        session.bound_dn = DN.parse("cn=Me,o=L")
        assert acl.decide(session, Rights.WRITE, DN.parse("cn=Me,o=L"))
        assert not acl.decide(session, Rights.WRITE, DN.parse("cn=You,o=L"))

    def test_rule_object_api(self):
        rule = AclRule(allow=True, rights=Rights.READ)
        acl = AccessControl(default_allow=False)
        acl.add_rule(rule)
        assert acl.decide(Session(), Rights.READ, DN.parse("cn=X,o=L"))
