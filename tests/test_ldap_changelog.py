"""Tests for changelog retention: records addressed by absolute position,
a fixed tail without readers, and nothing dropped that a registered
replication agreement has not shipped (docs/CONSISTENCY.md)."""

import pytest

from repro.ldap import (
    DN,
    ChangelogTruncatedError,
    Entry,
    LdapConnection,
    LdapServer,
    Modification,
)
from repro.ldap.backend import CHANGELOG_TAIL, Backend
from repro.ldap.replication import ReplicationEngine

DN_X = "cn=X,o=Lucent"


@pytest.fixture
def backend():
    b = Backend(["o=Lucent"])
    b.add(Entry("o=Lucent", {"objectClass": "organization", "o": "Lucent"}))
    b.add(Entry(DN_X, {"objectClass": "person", "cn": "X", "sn": "X"}))
    return b


def churn(backend, n):
    dn = DN.parse(DN_X)
    for i in range(n):
        backend.modify(dn, [Modification.replace("sn", f"v{i}")])


def make_server(server_id):
    server = LdapServer(["o=Lucent"], server_id=server_id)
    LdapConnection(server).add("o=Lucent", {"objectClass": "organization", "o": "Lucent"})
    return server


class TestRetentionWithoutReaders:
    def test_5000_writes_stay_within_the_tail(self, backend):
        churn(backend, 5000)
        log = backend.changelog
        assert len(log) == CHANGELOG_TAIL
        assert log.end == 5002  # two adds, then the modifies
        assert log.first == log.end - CHANGELOG_TAIL
        assert log[-1].after.first("sn") == "v4999"
        assert len(log.since(log.first)) == CHANGELOG_TAIL

    def test_positions_are_absolute(self, backend):
        churn(backend, CHANGELOG_TAIL + 10)
        log = backend.changelog
        end = log.end
        churn(backend, 3)
        assert [r.after.first("sn") for r in log.since(end)] == [
            "v0", "v1", "v2"
        ]

    def test_a_dropped_position_raises_instead_of_skipping(self, backend):
        churn(backend, CHANGELOG_TAIL + 10)
        with pytest.raises(ChangelogTruncatedError) as exc_info:
            backend.changelog.since(0)
        assert exc_info.value.first == backend.changelog.first

    def test_changes_since_keeps_working(self, backend):
        churn(backend, CHANGELOG_TAIL + 10)
        mid = backend.changelog[-3].csn
        tail = backend.changes_since(mid)
        assert [r.after.first("sn") for r in tail] == [
            f"v{CHANGELOG_TAIL + 8}", f"v{CHANGELOG_TAIL + 9}"
        ]
        # Asking for history the log no longer holds is an error, not a
        # silently shorter answer.
        with pytest.raises(ChangelogTruncatedError):
            backend.changes_since(None)


class TestRetentionWithAgreements:
    def test_an_unpropagated_agreement_loses_nothing(self):
        a, b = make_server("a"), make_server("b")
        engine = ReplicationEngine()
        engine.connect_mesh([a, b])
        engine.propagate()
        conn = LdapConnection(a)
        conn.add(DN_X, {"objectClass": "person", "cn": "X", "sn": "X"})
        writes = 2 * CHANGELOG_TAIL
        for i in range(writes):
            conn.modify(DN_X, [Modification.replace("sn", f"v{i}")])
        # The a → b agreement has shipped none of these yet.
        assert len(a.backend.changelog) >= writes + 1
        engine.propagate()
        assert b.get(DN_X).first("sn") == f"v{writes - 1}"
        assert engine.converged()
        # Once shipped, the next write trims the log back to its tail.
        conn.modify(DN_X, [Modification.replace("sn", "last")])
        assert len(a.backend.changelog) == CHANGELOG_TAIL

    def test_an_agreement_older_than_the_tail_raises(self):
        a, b = make_server("a"), make_server("b")
        conn = LdapConnection(a)
        conn.add(DN_X, {"objectClass": "person", "cn": "X", "sn": "X"})
        for i in range(CHANGELOG_TAIL + 1):
            conn.modify(DN_X, [Modification.replace("sn", f"v{i}")])
        engine = ReplicationEngine()
        engine.connect(a, b)
        with pytest.raises(ChangelogTruncatedError):
            engine.propagate()
