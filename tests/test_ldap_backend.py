"""Tests for the DIT backend: tree maintenance, atomic ops, changelog."""

import pytest

from repro.ldap import (
    DN,
    Attributes,
    ChangeType,
    Entry,
    EntryAlreadyExistsError,
    LdapConnection,
    LdapError,
    LdapServer,
    Modification,
    NoSuchObjectError,
    Rdn,
    ResultCode,
    Scope,
)
from repro.ldap.backend import Backend
from repro.ltap import LtapGateway, Trigger


@pytest.fixture
def backend():
    b = Backend(["o=Lucent"])
    b.add(Entry("o=Lucent", {"objectClass": "organization", "o": "Lucent"}))
    b.add(Entry("o=Marketing,o=Lucent", {"objectClass": "organization", "o": "Marketing"}))
    b.add(Entry("o=R&D,o=Lucent", {"objectClass": "organization", "o": "R&D"}))
    b.add(
        Entry(
            "cn=John Doe,o=Marketing,o=Lucent",
            {"objectClass": "person", "cn": "John Doe", "sn": "Doe",
             "telephoneNumber": "+1 908 582 9000"},
        )
    )
    return b


class TestAdd:
    def test_add_under_existing_parent(self, backend):
        backend.add(Entry("cn=Pat,o=Marketing,o=Lucent", {"objectClass": "person", "cn": "Pat"}))
        assert backend.contains(DN.parse("cn=Pat,o=Marketing,o=Lucent"))

    def test_add_duplicate_rejected(self, backend):
        with pytest.raises(EntryAlreadyExistsError):
            backend.add(Entry("cn=John Doe,o=Marketing,o=Lucent", {"objectClass": "person", "cn": "John Doe"}))

    def test_add_orphan_rejected(self, backend):
        with pytest.raises(NoSuchObjectError) as err:
            backend.add(Entry("cn=X,o=Void,o=Lucent", {"objectClass": "person", "cn": "X"}))
        assert err.value.matched_dn.lower() == "o=lucent"

    def test_add_outside_namespace_rejected(self, backend):
        with pytest.raises(LdapError) as err:
            backend.add(Entry("o=Elsewhere", {"objectClass": "organization", "o": "Elsewhere"}))
        assert err.value.code is ResultCode.UNWILLING_TO_PERFORM

    def test_add_injects_rdn_attributes(self, backend):
        backend.add(Entry("cn=NoAttrs,o=Lucent", {"objectClass": "person"}))
        assert backend.get(DN.parse("cn=NoAttrs,o=Lucent")).first("cn") == "NoAttrs"

    def test_stored_entry_isolated_from_caller(self, backend):
        entry = Entry("cn=Iso,o=Lucent", {"objectClass": "person", "cn": "Iso"})
        backend.add(entry)
        with pytest.raises(AttributeError):
            entry.attributes.put("cn", "Mutated")
        with pytest.raises(AttributeError):
            entry.attributes = Attributes({"cn": "Mutated"})
        assert backend.get(DN.parse("cn=Iso,o=Lucent")).first("cn") == "Iso"


class TestDelete:
    def test_delete_leaf(self, backend):
        dn = DN.parse("cn=John Doe,o=Marketing,o=Lucent")
        backend.delete(dn)
        assert not backend.contains(dn)

    def test_delete_non_leaf_rejected(self, backend):
        with pytest.raises(LdapError) as err:
            backend.delete(DN.parse("o=Marketing,o=Lucent"))
        assert err.value.code is ResultCode.NOT_ALLOWED_ON_NON_LEAF

    def test_delete_missing_rejected(self, backend):
        with pytest.raises(NoSuchObjectError):
            backend.delete(DN.parse("cn=Ghost,o=Lucent"))

    def test_delete_then_parent_becomes_leaf(self, backend):
        backend.delete(DN.parse("cn=John Doe,o=Marketing,o=Lucent"))
        backend.delete(DN.parse("o=Marketing,o=Lucent"))
        assert not backend.contains(DN.parse("o=Marketing,o=Lucent"))


class TestModify:
    DN_JOHN = DN.parse("cn=John Doe,o=Marketing,o=Lucent")

    def test_replace(self, backend):
        backend.modify(self.DN_JOHN, [Modification.replace("telephoneNumber", "+1 908 582 9111")])
        assert backend.get(self.DN_JOHN).first("telephoneNumber") == "+1 908 582 9111"

    def test_add_value(self, backend):
        backend.modify(self.DN_JOHN, [Modification.add("mail", "jdoe@lucent.com")])
        assert backend.get(self.DN_JOHN).get("mail") == ("jdoe@lucent.com",)

    def test_delete_attribute(self, backend):
        backend.modify(self.DN_JOHN, [Modification.delete("telephoneNumber")])
        assert not backend.get(self.DN_JOHN).has("telephoneNumber")

    def test_modify_is_atomic_on_error(self, backend):
        # Second modification fails; the first must not be applied.
        with pytest.raises(LdapError):
            backend.modify(
                self.DN_JOHN,
                [
                    Modification.replace("telephoneNumber", "+1 000"),
                    Modification.delete("absentAttr"),
                ],
            )
        assert backend.get(self.DN_JOHN).first("telephoneNumber") == "+1 908 582 9000"

    def test_cannot_remove_rdn_value(self, backend):
        with pytest.raises(LdapError) as err:
            backend.modify(self.DN_JOHN, [Modification.delete("cn")])
        assert err.value.code is ResultCode.NOT_ALLOWED_ON_RDN

    def test_can_add_second_value_to_rdn_attribute(self, backend):
        backend.modify(self.DN_JOHN, [Modification.add("cn", "Johnny Doe")])
        assert set(backend.get(self.DN_JOHN).get("cn")) == {"John Doe", "Johnny Doe"}


class TestModifyRdn:
    DN_JOHN = DN.parse("cn=John Doe,o=Marketing,o=Lucent")

    def test_rename_leaf(self, backend):
        backend.modify_rdn(self.DN_JOHN, Rdn.parse("cn=John Q Doe"))
        new_dn = DN.parse("cn=John Q Doe,o=Marketing,o=Lucent")
        assert backend.contains(new_dn)
        assert not backend.contains(self.DN_JOHN)
        entry = backend.get(new_dn)
        assert entry.get("cn") == ("John Q Doe",)
        assert entry.first("telephoneNumber") == "+1 908 582 9000"

    def test_rename_keeps_old_value_when_not_deleting(self, backend):
        backend.modify_rdn(self.DN_JOHN, Rdn.parse("cn=JQD"), delete_old_rdn=False)
        entry = backend.get(DN.parse("cn=JQD,o=Marketing,o=Lucent"))
        assert set(entry.get("cn")) == {"John Doe", "JQD"}

    def test_rename_to_existing_rejected(self, backend):
        backend.add(Entry("cn=Pat,o=Marketing,o=Lucent", {"objectClass": "person", "cn": "Pat"}))
        with pytest.raises(EntryAlreadyExistsError):
            backend.modify_rdn(self.DN_JOHN, Rdn.parse("cn=Pat"))

    def test_rename_suffix_rejected(self, backend):
        with pytest.raises(LdapError):
            backend.modify_rdn(DN.parse("o=Lucent"), Rdn.parse("o=NewCo"))

    def test_rename_interior_rekeys_subtree(self, backend):
        backend.modify_rdn(DN.parse("o=Marketing,o=Lucent"), Rdn.parse("o=Sales"))
        moved = DN.parse("cn=John Doe,o=Sales,o=Lucent")
        assert backend.contains(moved)
        assert not backend.contains(self.DN_JOHN)
        # Children index survives: deleting the moved child then the parent works.
        backend.delete(moved)
        backend.delete(DN.parse("o=Sales,o=Lucent"))

    def test_rename_noop_same_rdn(self, backend):
        backend.modify_rdn(self.DN_JOHN, Rdn.parse("cn=John Doe"))
        assert backend.contains(self.DN_JOHN)


class TestSearch:
    def test_base_scope(self, backend):
        hits = backend.search(DN.parse("o=Lucent"), Scope.BASE)
        assert [str(e.dn) for e in hits] == ["o=Lucent"]

    def test_one_scope(self, backend):
        hits = backend.search(DN.parse("o=Lucent"), Scope.ONE)
        assert {e.first("o") for e in hits} == {"Marketing", "R&D"}

    def test_sub_scope_includes_base(self, backend):
        hits = backend.search(DN.parse("o=Lucent"), Scope.SUB)
        assert len(hits) == 4

    def test_filtering(self, backend):
        hits = backend.search(DN.parse("o=Lucent"), Scope.SUB, "(objectClass=person)")
        assert [e.first("cn") for e in hits] == ["John Doe"]

    def test_attribute_projection(self, backend):
        hits = backend.search(
            DN.parse("o=Lucent"), Scope.SUB, "(cn=John Doe)", attributes=["sn"]
        )
        (entry,) = hits
        assert entry.has("sn")
        assert not entry.has("telephoneNumber")

    def test_size_limit(self, backend):
        with pytest.raises(LdapError) as err:
            backend.search(DN.parse("o=Lucent"), Scope.SUB, size_limit=2)
        assert err.value.code is ResultCode.SIZE_LIMIT_EXCEEDED

    def test_search_missing_base(self, backend):
        with pytest.raises(NoSuchObjectError):
            backend.search(DN.parse("o=Ghost,o=Lucent"))

    def test_results_are_copies(self, backend):
        (hit,) = backend.search(DN.parse("o=Lucent"), Scope.SUB, "(cn=John Doe)")
        with pytest.raises(AttributeError):
            hit.attributes.put("cn", "Tampered")
        with pytest.raises(AttributeError):
            hit.attributes = Attributes({"cn": "Tampered"})
        assert backend.get(hit.dn).first("cn") == "John Doe"


class TestImmutableEntries:
    def test_no_handed_out_entry_can_be_mutated(self):
        """Reads, changelog images and trigger images share the stored
        entry objects; every way of changing one raises, and the DIT stays
        as it was."""
        server = LdapServer(["o=Lucent"])
        gateway = LtapGateway(server)
        events, records = [], []
        gateway.register_trigger(Trigger(action=events.append))
        server.backend.add_listener(records.append)
        conn = LdapConnection(gateway)
        conn.add("o=Lucent", {"objectClass": "organization", "o": "Lucent"})
        conn.add("cn=X,o=Lucent", {"objectClass": "person", "cn": "X", "sn": "S"})
        conn.modify("cn=X,o=Lucent", [Modification.replace("sn", "T")])
        backend = server.backend
        dn, base = DN.parse("cn=X,o=Lucent"), DN.parse("o=Lucent")
        handed_out = {
            "get": backend.get(dn),
            "search hit": backend.search(base, Scope.SUB, "(cn=X)")[0],
            "projected hit": backend.search(base, Scope.SUB, "(cn=X)", ["sn"])[0],
            "all_entries": backend.all_entries()[-1],
            "record before": records[-1].before,
            "record after": records[-1].after,
            "trigger before": events[-1].before,
            "trigger after": events[-1].after,
        }
        assert handed_out["get"] is records[-1].after is events[-1].after
        state = [(e.dn, e.attributes.to_dict()) for e in backend.all_entries()]
        attempts = [
            lambda e: setattr(e, "dn", DN.parse("cn=Y,o=Lucent")),
            lambda e: setattr(e, "attributes", Attributes({"sn": "Z"})),
            lambda e: delattr(e, "attributes"),
            lambda e: e.get("sn").append("Z"),
            lambda e: e.attributes.put("sn", "Z"),
        ]
        for entry in handed_out.values():
            for attempt in attempts:
                with pytest.raises(AttributeError):
                    attempt(entry)
        assert [(e.dn, e.attributes.to_dict()) for e in backend.all_entries()] == state
        assert backend.get(dn).get("sn") == ("T",)


class TestChangelogAndListeners:
    def test_changelog_records_all_ops(self, backend):
        start = len(backend.changelog)
        dn = DN.parse("cn=T,o=Lucent")
        backend.add(Entry(dn, {"objectClass": "person", "cn": "T"}))
        backend.modify(dn, [Modification.replace("sn", "X")])
        backend.modify_rdn(dn, Rdn.parse("cn=T2"))
        backend.delete(DN.parse("cn=T2,o=Lucent"))
        kinds = [r.change_type for r in backend.changelog[start:]]
        assert kinds == [
            ChangeType.ADD,
            ChangeType.MODIFY,
            ChangeType.MODIFY_RDN,
            ChangeType.DELETE,
        ]

    def test_csns_strictly_increase(self, backend):
        csns = [r.csn for r in backend.changelog]
        assert all(a < b for a, b in zip(csns, csns[1:]))

    def test_listener_sees_before_and_after(self, backend):
        seen = []
        backend.add_listener(seen.append)
        dn = DN.parse("cn=John Doe,o=Marketing,o=Lucent")
        backend.modify(dn, [Modification.replace("telephoneNumber", "+1 1")])
        (record,) = seen
        assert record.before.first("telephoneNumber") == "+1 908 582 9000"
        assert record.after.first("telephoneNumber") == "+1 1"

    def test_remove_listener(self, backend):
        seen = []
        backend.add_listener(seen.append)
        backend.remove_listener(seen.append)
        backend.modify(
            DN.parse("cn=John Doe,o=Marketing,o=Lucent"),
            [Modification.replace("sn", "D")],
        )
        assert not seen

    def test_failed_op_not_logged(self, backend):
        start = len(backend.changelog)
        with pytest.raises(NoSuchObjectError):
            backend.delete(DN.parse("cn=Ghost,o=Lucent"))
        assert len(backend.changelog) == start

    def test_changes_since(self, backend):
        mid = backend.changelog[-1].csn
        backend.add(Entry("cn=After,o=Lucent", {"objectClass": "person", "cn": "After"}))
        tail = backend.changes_since(mid)
        assert len(tail) == 1
        assert tail[0].dn == DN.parse("cn=After,o=Lucent")
        assert len(backend.changes_since(None)) == len(backend.changelog)
