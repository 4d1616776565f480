"""Tests for the LDIF reader/writer."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.ldap import Entry, entry_to_ldif, parse_ldif, write_ldif
from repro.ldap.ldif import LdifSyntaxError

SAMPLE = """\
version: 1

dn: o=Lucent
objectClass: organization
o: Lucent

# a comment line
dn: cn=John Doe,o=Marketing,o=Lucent
objectClass: person
cn: John Doe
sn: Doe
telephoneNumber: +1 908 582 9000
"""


class TestParse:
    def test_parse_two_entries(self):
        entries = parse_ldif(SAMPLE)
        assert len(entries) == 2
        assert str(entries[0].dn) == "o=Lucent"
        assert entries[1].first("telephoneNumber") == "+1 908 582 9000"

    def test_comments_skipped(self):
        assert len(parse_ldif("# only a comment\n")) == 0

    def test_base64_value(self):
        text = "dn: cn=X,o=L\ncn:: WMOpbMOpcGhvbmU=\n"
        (entry,) = parse_ldif(text)
        assert entry.first("cn") == "Xéléphone"

    def test_continuation_lines(self):
        text = "dn: cn=Long,o=L\ndescription: part one\n  and part two\n"
        (entry,) = parse_ldif(text)
        assert entry.first("description") == "part one and part two"

    def test_multi_valued(self):
        text = "dn: cn=X,o=L\nmail: a@x\nmail: b@x\n"
        (entry,) = parse_ldif(text)
        assert entry.get("mail") == ("a@x", "b@x")

    def test_records_without_blank_separator(self):
        text = "dn: o=A\no: A\ndn: o=B\no: B\n"
        assert len(parse_ldif(text)) == 2

    def test_attribute_before_dn_rejected(self):
        with pytest.raises(LdifSyntaxError):
            parse_ldif("cn: X\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(LdifSyntaxError):
            parse_ldif("dn: o=A\nthis is not ldif\n")

    def test_url_value_rejected(self):
        with pytest.raises(LdifSyntaxError):
            parse_ldif("dn: o=A\njpegPhoto:< file:///x.jpg\n")

    def test_parse_from_stream(self):
        entries = parse_ldif(io.StringIO(SAMPLE))
        assert len(entries) == 2


class TestWrite:
    def test_round_trip(self):
        entries = parse_ldif(SAMPLE)
        out = write_ldif(entries)
        again = parse_ldif(out)
        assert again == entries

    def test_objectclass_emitted_first(self):
        entry = Entry("cn=X,o=L", {"zz": "1", "objectClass": "person", "cn": "X"})
        lines = entry_to_ldif(entry).splitlines()
        assert lines[0].startswith("dn:")
        assert lines[1] == "objectClass: person"

    def test_base64_for_leading_space(self):
        entry = Entry("cn=X,o=L", {"cn": "X", "description": " padded"})
        text = entry_to_ldif(entry)
        assert "description:: " in text
        (back,) = parse_ldif(text)
        assert back.first("description") == " padded"

    def test_base64_for_non_ascii(self):
        entry = Entry("cn=X,o=L", {"cn": "X", "sn": "Müller"})
        (back,) = parse_ldif(entry_to_ldif(entry))
        assert back.first("sn") == "Müller"

    def test_long_lines_folded(self):
        entry = Entry("cn=X,o=L", {"cn": "X", "description": "v" * 300})
        text = entry_to_ldif(entry)
        assert all(len(line) <= 76 for line in text.splitlines())
        (back,) = parse_ldif(text)
        assert back.first("description") == "v" * 300

    def test_write_to_stream(self):
        buf = io.StringIO()
        write_ldif([Entry("o=L", {"objectClass": "organization", "o": "L"})], buf)
        assert "dn: o=L" in buf.getvalue()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["cn", "sn", "description", "mail"]),
            st.text(min_size=1, max_size=120).filter(lambda s: "\r" not in s and "\n" not in s),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0],
    )
)
def test_ldif_round_trip_property(attrs):
    entry = Entry("cn=T,o=L", dict(attrs, cn="T"))
    (back,) = parse_ldif(entry_to_ldif(entry))
    assert back == entry
