"""The process-wide memos on the write path: parsed DNs
(:func:`repro.ldap.dn._parse_memo`) and each schema's resolved
objectClass sets.  Both must answer exactly as the work they replace."""

import pytest

from repro.ldap import (
    AttributeType,
    ClassKind,
    Entry,
    ObjectClass,
    Schema,
    SchemaViolationError,
    define_attributes,
)
from repro.ldap.dn import DN, PARSE_MEMO_SIZE, _parse_memo
from repro.ldap.result import InvalidDnError


class TestDnMemo:
    def test_memoized_parse_equals_a_fresh_parse(self):
        for text in ("cn=John Doe, o=Marketing, o=Lucent", "", "  o=Lucent "):
            memoized = DN.parse(text)
            fresh = DN._parse(text)
            assert memoized == fresh
            assert str(memoized) == str(fresh)
            assert memoized.rdns == fresh.rdns
        assert DN.parse("cn=A,o=L") is DN.parse("cn=A,o=L")

    def test_invalid_text_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(InvalidDnError):
                DN.parse("cn=A,=o")
            with pytest.raises(InvalidDnError):
                DN.parse("cn=A\\")

    def test_subclasses_bypass_the_memo(self):
        class Named(DN):
            __slots__ = ()

        parsed = Named.parse("cn=A,o=L")
        assert type(parsed) is Named
        assert type(DN.parse("cn=A,o=L")) is DN

    def test_the_memo_stays_bounded(self):
        for n in range(PARSE_MEMO_SIZE + 50):
            DN.parse(f"cn=Person {n},o=Lucent")
        assert _parse_memo.cache_info().currsize <= PARSE_MEMO_SIZE


@pytest.fixture
def schema():
    s = Schema()
    define_attributes(s, ["cn", "sn", "mail"])
    s.define_class(ObjectClass("top", kind=ClassKind.ABSTRACT))
    s.define_class(ObjectClass("person", sup="top", must=("cn", "sn")))
    return s


def person(**extra):
    attrs = {"objectClass": ["person"], "cn": "J", "sn": "D"}
    attrs.update(extra)
    return Entry("cn=J,o=L", attrs)


class TestSchemaMemo:
    def test_define_class_clears_the_memo(self, schema):
        # Leniently, an unknown class resolves to nothing and is memoized.
        schema.strict = False
        employee = Entry("cn=J,o=L", {"objectClass": ["employee"], "cn": "J", "sn": "D"})
        schema.check_entry(employee)
        schema.define_class(ObjectClass("employee", sup="person", must=("mail",)))
        with pytest.raises(SchemaViolationError, match="missing mandatory"):
            schema.check_entry(employee)

    def test_define_attribute_clears_the_memo(self, schema):
        schema.check_entry(person())
        assert schema._class_sets
        schema.define_attribute(AttributeType("title"))
        assert not schema._class_sets

    def test_a_strict_flip_is_respected(self, schema):
        ghost = Entry("cn=J,o=L", {"objectClass": ["person", "ghost"], "cn": "J", "sn": "D"})
        with pytest.raises(SchemaViolationError, match="unknown object class"):
            schema.check_entry(ghost)
        schema.strict = False
        schema.check_entry(ghost)
        schema.strict = True
        with pytest.raises(SchemaViolationError, match="unknown object class"):
            schema.check_entry(ghost)

    def test_per_write_checks_still_run_on_a_memo_hit(self, schema):
        schema.check_entry(person())
        with pytest.raises(SchemaViolationError, match="missing mandatory"):
            schema.check_entry(Entry("cn=J,o=L", {"objectClass": ["person"], "cn": "J"}))
        with pytest.raises(SchemaViolationError, match="not allowed"):
            schema.check_entry(person(mail="m"))
        schema.define_entry_constraint(
            "no-x", lambda e: "x" if e.first("sn") == "X" else None
        )
        with pytest.raises(Exception, match="no-x"):
            schema.check_entry(person(sn="X"))

    def test_case_variants_share_one_resolution(self, schema):
        schema.check_entry(person())
        schema.check_entry(
            Entry("cn=J,o=L", {"objectClass": ["PERSON"], "cn": "J", "sn": "D"})
        )
        assert list(schema._class_sets) == [(("person",), True)]
