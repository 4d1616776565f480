"""Tests for the LDAP server + client connection layer."""

import pytest

from repro.ldap import (
            LdapConnection,
    LdapError,
    LdapServer,
    Modification,
    ResultCode,
    Scope,
)


@pytest.fixture
def server():
    s = LdapServer(["o=Lucent"])
    conn = LdapConnection(s)
    conn.add("o=Lucent", {"objectClass": "organization", "o": "Lucent"})
    conn.add("o=R&D,o=Lucent", {"objectClass": "organization", "o": "R&D"})
    conn.add(
        "cn=Jill Lu,o=R&D,o=Lucent",
        {
            "objectClass": "person",
            "cn": "Jill Lu",
            "sn": "Lu",
            "userPassword": "jillpw",
        },
    )
    return s


@pytest.fixture
def conn(server):
    return LdapConnection(server)


class TestCrudThroughConnection:
    def test_add_and_get(self, conn):
        conn.add("cn=Tim,o=R&D,o=Lucent", {"objectClass": "person", "cn": "Tim"})
        assert conn.get("cn=Tim,o=R&D,o=Lucent").first("cn") == "Tim"

    def test_get_missing_raises(self, conn):
        with pytest.raises(LdapError) as err:
            conn.get("cn=Ghost,o=Lucent")
        assert err.value.code is ResultCode.NO_SUCH_OBJECT

    def test_exists(self, conn):
        assert conn.exists("cn=Jill Lu,o=R&D,o=Lucent")
        assert not conn.exists("cn=Ghost,o=Lucent")

    def test_modify(self, conn):
        conn.modify(
            "cn=Jill Lu,o=R&D,o=Lucent",
            [Modification.replace("telephoneNumber", "+1 2")],
        )
        assert conn.get("cn=Jill Lu,o=R&D,o=Lucent").first("telephoneNumber") == "+1 2"

    def test_replace_convenience(self, conn):
        conn.replace("cn=Jill Lu,o=R&D,o=Lucent", {"sn": "Lu-Chen", "mail": ["j@l"]})
        entry = conn.get("cn=Jill Lu,o=R&D,o=Lucent")
        assert entry.first("sn") == "Lu-Chen"
        assert entry.get("mail") == ("j@l",)

    def test_modify_rdn(self, conn):
        conn.modify_rdn("cn=Jill Lu,o=R&D,o=Lucent", "cn=Jill L")
        assert conn.exists("cn=Jill L,o=R&D,o=Lucent")

    def test_delete(self, conn):
        conn.delete("cn=Jill Lu,o=R&D,o=Lucent")
        assert not conn.exists("cn=Jill Lu,o=R&D,o=Lucent")

    def test_search_scopes(self, conn):
        subtree = conn.search("o=Lucent", Scope.SUB)
        one = conn.search("o=Lucent", Scope.ONE)
        base = conn.search("o=Lucent", Scope.BASE)
        assert len(subtree) == 3
        assert len(one) == 1
        assert len(base) == 1

    def test_search_with_filter(self, conn):
        hits = conn.search("o=Lucent", Scope.SUB, "(sn=Lu)")
        assert [e.first("cn") for e in hits] == ["Jill Lu"]

    def test_compare(self, conn):
        assert conn.compare("cn=Jill Lu,o=R&D,o=Lucent", "sn", "lu")
        assert not conn.compare("cn=Jill Lu,o=R&D,o=Lucent", "sn", "wrong")

    def test_compare_missing_entry_raises(self, conn):
        with pytest.raises(LdapError):
            conn.compare("cn=Ghost,o=Lucent", "sn", "x")

    def test_error_response_carries_matched_dn(self, conn):
        with pytest.raises(LdapError) as err:
            conn.get("cn=X,o=Nowhere,o=Lucent")
        assert err.value.code is ResultCode.NO_SUCH_OBJECT


class TestBind:
    def test_anonymous_bind(self, conn):
        conn.bind()  # no credentials
        assert conn.session.bound_dn is None

    def test_root_bind(self, server):
        conn = LdapConnection(server)
        conn.bind("cn=Directory Manager", "secret")
        assert conn.session.authenticated

    def test_root_bind_bad_password(self, server):
        conn = LdapConnection(server)
        with pytest.raises(LdapError) as err:
            conn.bind("cn=Directory Manager", "wrong")
        assert err.value.code is ResultCode.INVALID_CREDENTIALS

    def test_user_bind(self, server):
        conn = LdapConnection(server)
        conn.bind("cn=Jill Lu,o=R&D,o=Lucent", "jillpw")
        assert conn.session.authenticated

    def test_user_bind_bad_password(self, server):
        conn = LdapConnection(server)
        with pytest.raises(LdapError):
            conn.bind("cn=Jill Lu,o=R&D,o=Lucent", "nope")

    def test_unknown_user_bind(self, server):
        conn = LdapConnection(server)
        with pytest.raises(LdapError):
            conn.bind("cn=Ghost,o=Lucent", "x")

    def test_unbind(self, server):
        conn = LdapConnection(server)
        conn.bind("cn=Directory Manager", "secret")
        conn.unbind()
        assert not conn.session.authenticated


class TestAccessControl:
    def test_writes_require_bind_when_configured(self):
        server = LdapServer(["o=L"], require_bind_for_writes=True)
        conn = LdapConnection(server)
        with pytest.raises(LdapError) as err:
            conn.add("o=L", {"objectClass": "organization", "o": "L"})
        assert err.value.code is ResultCode.INSUFFICIENT_ACCESS_RIGHTS
        conn.bind("cn=Directory Manager", "secret")
        conn.add("o=L", {"objectClass": "organization", "o": "L"})

    def test_reads_allowed_anonymously(self):
        server = LdapServer(["o=L"], require_bind_for_writes=True)
        admin = LdapConnection(server)
        admin.bind("cn=Directory Manager", "secret")
        admin.add("o=L", {"objectClass": "organization", "o": "L"})
        anon = LdapConnection(server)
        assert anon.search("o=L")


class TestStatistics:
    def test_read_write_counters(self, server, conn):
        def ops(*names):
            return sum(
                server.registry.value("metacomm_ldap_ops_total", op=name)
                for name in names
            )

        reads = ("search", "compare")
        writes = ("add", "delete", "modify", "modifyrdn")
        before_reads, before_writes = ops(*reads), ops(*writes)
        conn.search("o=Lucent")
        conn.add("cn=S,o=Lucent", {"objectClass": "person", "cn": "S"})
        assert ops(*reads) == before_reads + 1
        assert ops(*writes) == before_writes + 1
