"""Edge-case tests sweeping the remaining less-travelled paths."""

import pytest

from repro.ldap import (
    DN,
    Entry,
    LdapConnection,
    LdapError,
    LdapServer,
    Modification,
    ResultCode,
    Scope,
)
from repro.ldap.protocol import LdapRequest
from repro.ltap import LtapGateway, Trigger, TriggerTiming


@pytest.fixture
def server():
    s = LdapServer(["o=L"])
    LdapConnection(s).add("o=L", {"objectClass": "organization", "o": "L"})
    return s


class TestGatewayEdges:
    def test_unknown_update_request_rejected(self, server):
        gateway = LtapGateway(server)

        class WeirdRequest(LdapRequest):
            def __init__(self):
                super().__post_init__()

        response = gateway.process(WeirdRequest())
        assert response.result.code is ResultCode.PROTOCOL_ERROR

    def test_before_trigger_sees_no_after_image(self, server):
        gateway = LtapGateway(server)
        seen = []
        gateway.register_trigger(
            Trigger(action=seen.append, timing=TriggerTiming.BEFORE)
        )
        LdapConnection(gateway).add(
            "cn=X,o=L", {"objectClass": "person", "cn": "X", "sn": "X"}
        )
        (event,) = seen
        assert event.after is None
        assert event.before is None  # add: nothing existed yet

    def test_trigger_on_rename_locks_old_dn(self, server):
        gateway = LtapGateway(server)
        conn = LdapConnection(gateway)
        conn.add("cn=X,o=L", {"objectClass": "person", "cn": "X", "sn": "X"})
        locked = []
        gateway.register_trigger(
            Trigger(
                action=lambda e: locked.append(
                    gateway.locks.is_locked(DN.parse("cn=X,o=L"))
                )
            )
        )
        conn.modify_rdn("cn=X,o=L", "cn=Y")
        assert locked == [True]

    def test_session_survives_failed_op(self, server):
        gateway = LtapGateway(server)
        conn = LdapConnection(gateway)
        conn.bind("cn=Directory Manager", "secret")
        with pytest.raises(LdapError):
            conn.delete("cn=Ghost,o=L")
        assert conn.session.authenticated
        assert gateway.locks.held_count() == 0


class TestServerEdges:
    def test_search_base_entry_projection_star(self, server):
        conn = LdapConnection(server)
        (entry,) = conn.search("o=L", Scope.BASE, attributes=["*"])
        assert entry.has("objectClass")

    def test_compare_on_operational_like_attr(self, server):
        conn = LdapConnection(server)
        assert not conn.compare("o=L", "description", "anything")

    def test_size_limit_not_triggered_at_exact_count(self, server):
        conn = LdapConnection(server)
        conn.add("cn=A,o=L", {"objectClass": "person", "cn": "A", "sn": "A"})
        hits = conn.search("o=L", Scope.SUB, "(objectClass=person)", size_limit=1)
        assert len(hits) == 1

    def test_root_dn_configurable(self):
        server = LdapServer(["o=L"], root_dn="cn=admin", root_password="pw")
        conn = LdapConnection(server)
        conn.bind("cn=admin", "pw")
        assert conn.session.authenticated


class TestDnEdges:
    def test_multi_ava_rdn_in_tree(self, server):
        conn = LdapConnection(server)
        conn.add(
            "cn=X+sn=Y,o=L", {"objectClass": "person", "cn": "X", "sn": "Y"}
        )
        entry = conn.get("sn=Y+cn=X,o=L")  # AVA order irrelevant
        assert entry.first("cn") == "X"

    def test_rdn_attribute_injection_on_multi_ava(self, server):
        conn = LdapConnection(server)
        conn.add("cn=A+sn=B,o=L", {"objectClass": "person"})
        entry = conn.get("cn=A+sn=B,o=L")
        assert entry.first("cn") == "A"
        assert entry.first("sn") == "B"

    def test_deep_nesting(self, server):
        conn = LdapConnection(server)
        parent = "o=L"
        for i in range(8):
            dn = f"ou=l{i},{parent}"
            conn.add(dn, {"objectClass": "organizationalUnit", "ou": f"l{i}"})
            parent = dn
        assert conn.exists(parent)
        hits = conn.search("o=L", Scope.SUB, "(ou=l7)")
        assert len(hits) == 1


class TestReplicationEdges:
    def test_changes_predating_registration_ship(self):
        from repro.ldap.replication import ReplicationEngine

        a = LdapServer(["o=L"], server_id="a")
        conn = LdapConnection(a)
        conn.add("o=L", {"objectClass": "organization", "o": "L"})
        conn.add("cn=Early,o=L", {"objectClass": "person", "cn": "Early", "sn": "E"})
        b = LdapServer(["o=L"], server_id="b")
        engine = ReplicationEngine()
        engine.connect(a, b)
        engine.propagate()
        assert LdapConnection(b).exists("cn=Early,o=L")

    def test_rename_then_modify_replicates_in_order(self):
        from repro.ldap.replication import ReplicationEngine

        a = LdapServer(["o=L"], server_id="a")
        b = LdapServer(["o=L"], server_id="b")
        for s in (a, b):
            LdapConnection(s).add("o=L", {"objectClass": ["top", "organization"], "o": "L"})
        engine = ReplicationEngine()
        engine.connect_mesh([a, b])
        engine.propagate()
        conn = LdapConnection(a)
        conn.add("cn=X,o=L", {"objectClass": "person", "cn": "X", "sn": "X"})
        conn.modify_rdn("cn=X,o=L", "cn=Y")
        conn.modify("cn=Y,o=L", [Modification.replace("sn", "Z")])
        engine.propagate()
        assert engine.converged()
        assert LdapConnection(b).get("cn=Y,o=L").first("sn") == "Z"


class TestNetCodecEdges:
    def test_encode_unknown_request_raises(self):
        from repro.ldap.net import encode_request

        class Strange(LdapRequest):
            def __init__(self):
                super().__post_init__()

        with pytest.raises(LdapError):
            encode_request(Strange())

    def test_decode_unknown_op_raises(self):
        from repro.ldap.net import decode_request

        with pytest.raises(LdapError):
            decode_request({"op": "frobnicate"})

    def test_response_round_trip_with_entries(self):
        from repro.ldap.net import decode_response, encode_response
        from repro.ldap.protocol import LdapResponse, LdapResult

        response = LdapResponse(
            LdapResult(ResultCode.SUCCESS),
            [Entry("cn=X,o=L", {"cn": "X", "mail": ["a@x", "b@x"]})],
        )
        again = decode_response(encode_response(response))
        assert again.result.ok
        assert again.entries[0].get("mail") == ("a@x", "b@x")
