"""Tests for attribute collections and entries."""

import pytest
from hypothesis import given, strategies as st

from repro.ldap import Attributes, Entry, LdapError, Modification, ResultCode


class TestAttributes:
    def test_put_and_get(self):
        attrs = Attributes().modified([Modification.replace("cn", "John Doe")])
        assert attrs.get("cn") == ("John Doe",)
        assert attrs.get("CN") == ("John Doe",)

    def test_put_list(self):
        attrs = Attributes({"mail": ["a@x.com", "b@x.com"]})
        assert attrs.get("mail") == ("a@x.com", "b@x.com")

    def test_put_empty_removes(self):
        attrs = Attributes({"cn": "x"}).modified([Modification.replace("cn")])
        assert not attrs.has("cn")

    def test_first(self):
        attrs = Attributes({"mail": ["a@x.com", "b@x.com"]})
        assert attrs.first("mail") == "a@x.com"
        assert attrs.first("absent") is None
        assert attrs.first("absent", "dflt") == "dflt"

    def test_case_preserved_from_first_writer(self):
        attrs = Attributes().modified([
            Modification.replace("telephoneNumber", "1"),
            Modification.replace("TELEPHONENUMBER", "2"),
        ])
        assert attrs.names() == ["telephoneNumber"]
        assert attrs.get("telephonenumber") == ("2",)

    def test_add_values_rejects_duplicates(self):
        attrs = Attributes({"cn": "John"})
        with pytest.raises(LdapError) as err:
            attrs.modified([Modification.add("cn", "JOHN")])
        assert err.value.code is ResultCode.ATTRIBUTE_OR_VALUE_EXISTS
        assert attrs.get("cn") == ("John",)

    def test_add_values_appends(self):
        attrs = Attributes({"cn": "John"}).modified([Modification.add("cn", "Johnny")])
        assert attrs.get("cn") == ("John", "Johnny")

    def test_delete_specific_value(self):
        attrs = Attributes({"mail": ["a@x", "b@x"]})
        attrs = attrs.modified([Modification.delete("mail", "a@x")])
        assert attrs.get("mail") == ("b@x",)

    def test_delete_last_value_removes_attribute(self):
        attrs = Attributes({"mail": "a@x"})
        attrs = attrs.modified([Modification.delete("mail", "a@x")])
        assert not attrs.has("mail")

    def test_delete_whole_attribute(self):
        attrs = Attributes({"mail": ["a@x", "b@x"]})
        attrs = attrs.modified([Modification.delete("mail")])
        assert not attrs.has("mail")

    def test_delete_missing_attribute_raises(self):
        with pytest.raises(LdapError) as err:
            Attributes().modified([Modification.delete("mail")])
        assert err.value.code is ResultCode.UNDEFINED_ATTRIBUTE_TYPE

    def test_delete_missing_value_raises(self):
        attrs = Attributes({"mail": "a@x"})
        with pytest.raises(LdapError) as err:
            attrs.modified([Modification.delete("mail", "zzz")])
        assert err.value.code is ResultCode.UNDEFINED_ATTRIBUTE_TYPE

    def test_has_value_case_insensitive(self):
        attrs = Attributes({"cn": "John Doe"})
        assert attrs.has_value("cn", "john  doe")
        assert not attrs.has_value("cn", "jane doe")

    def test_equality_ignores_case_and_order(self):
        a = Attributes({"cn": ["X", "Y"]})
        b = Attributes({"CN": ["y", "x"]})
        assert a == b

    def test_modified_leaves_original_unchanged(self):
        a = Attributes({"cn": "x", "sn": "s"})
        b = a.modified([Modification.replace("cn", "y")])
        assert a.get("cn") == ("x",)
        assert b.get("cn") == ("y",)
        assert b.get("sn") is a.get("sn")  # untouched values are shared

    def test_values_are_immutable(self):
        attrs = Attributes({"mail": ["a@x"]})
        with pytest.raises(AttributeError):
            attrs.get("mail").append("b@x")
        assert not hasattr(attrs, "put")

    def test_select_shares_values(self):
        attrs = Attributes({"cn": "x", "Mail": ["a@x", "b@x"]})
        picked = attrs.select(["mail"])
        assert picked.names() == ["Mail"]
        assert picked.get("mail") is attrs.get("mail")

    def test_len_and_contains(self):
        attrs = Attributes({"a": "1", "b": "2"})
        assert len(attrs) == 2
        assert "A" in attrs
        assert "c" not in attrs

    @given(
        st.dictionaries(
            st.sampled_from(["cn", "sn", "mail", "ou"]),
            st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=3, unique=True),
            max_size=4,
        )
    )
    def test_to_dict_round_trip(self, data):
        attrs = Attributes(data)
        assert Attributes(attrs.to_dict()) == attrs


class TestEntry:
    def test_construct_from_string_dn(self):
        entry = Entry("cn=John,o=Lucent", {"objectClass": "person", "cn": "John"})
        assert str(entry.dn) == "cn=John,o=Lucent"
        assert entry.object_classes == ("person",)

    def test_rdn_consistent(self):
        good = Entry("cn=John,o=Lucent", {"cn": "John"})
        bad = Entry("cn=John,o=Lucent", {"cn": "Jane"})
        assert good.rdn_consistent()
        assert not bad.rdn_consistent()

    def test_rdn_consistent_multi_ava(self):
        entry = Entry("cn=J+sn=D,o=L", {"cn": "J", "sn": "D"})
        assert entry.rdn_consistent()

    def test_fields_cannot_be_reassigned(self):
        entry = Entry("cn=X,o=L", {"cn": "X"})
        with pytest.raises(AttributeError):
            entry.attributes = Attributes({"cn": "Y"})
        with pytest.raises(AttributeError):
            entry.dn = "cn=Y,o=L"
        with pytest.raises(AttributeError):
            del entry.attributes
        assert entry.first("cn") == "X"
        assert str(entry.dn) == "cn=X,o=L"

    def test_equality(self):
        a = Entry("cn=X,o=L", {"cn": "X"})
        b = Entry("CN=x,O=l", {"CN": "x"})
        assert a == b

    def test_constructor_shares_attributes(self):
        attrs = Attributes({"cn": "X"})
        assert Entry("cn=X,o=L", attrs).attributes is attrs

    def test_constructor_copies_a_mapping(self):
        values = {"cn": ["X"]}
        entry = Entry("cn=X,o=L", values)
        values["cn"].append("mutated")
        assert entry.get("cn") == ("X",)
