"""Tests for backend equality indexes: correctness under every mutation."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ldap import (
    DN,
    Entry,
            Modification,
    Rdn,
    )
from repro.ldap.backend import Backend
from repro.ldap.filter import parse_filter
from repro.ldap.protocol import Scope
from repro.ldap.result import LdapError, ResultCode


@pytest.fixture
def backend():
    b = Backend(["o=L"])
    b.add(Entry("o=L", {"objectClass": "organization", "o": "L"}))
    b.create_index("telephoneNumber")
    b.create_index("objectClass")
    return b


def add_person(backend, cn, phone=None):
    attrs = {"objectClass": "person", "cn": cn, "sn": cn}
    if phone:
        attrs["telephoneNumber"] = phone
    backend.add(Entry(f"cn={cn},o=L", attrs))


def search_phones(backend, phone):
    return {
        e.first("cn")
        for e in backend.search(DN.parse("o=L"), filter=f"(telephoneNumber={phone})")
    }


class TestIndexCorrectness:
    def test_index_used_for_equality(self, backend):
        add_person(backend, "A", "100")
        add_person(backend, "B", "200")
        assert search_phones(backend, "100") == {"A"}
        assert "telephonenumber" in backend.indexed_attributes()

    def test_index_inside_and_filter(self, backend):
        add_person(backend, "A", "100")
        hits = backend.search(
            DN.parse("o=L"),
            filter="(&(objectClass=person)(telephoneNumber=100))",
        )
        assert [e.first("cn") for e in hits] == ["A"]

    def test_index_tracks_modify(self, backend):
        add_person(backend, "A", "100")
        backend.modify(
            DN.parse("cn=A,o=L"), [Modification.replace("telephoneNumber", "300")]
        )
        assert search_phones(backend, "100") == set()
        assert search_phones(backend, "300") == {"A"}

    def test_index_tracks_delete(self, backend):
        add_person(backend, "A", "100")
        backend.delete(DN.parse("cn=A,o=L"))
        assert search_phones(backend, "100") == set()

    def test_index_tracks_attribute_removal(self, backend):
        add_person(backend, "A", "100")
        backend.modify(
            DN.parse("cn=A,o=L"), [Modification.delete("telephoneNumber")]
        )
        assert search_phones(backend, "100") == set()

    def test_index_tracks_rename(self, backend):
        add_person(backend, "A", "100")
        backend.modify_rdn(DN.parse("cn=A,o=L"), Rdn.parse("cn=Z"))
        assert search_phones(backend, "100") == {"Z"}

    def test_index_tracks_subtree_rename(self, backend):
        backend.add(Entry("o=Sub,o=L", {"objectClass": "organization", "o": "Sub"}))
        backend.add(
            Entry(
                "cn=Deep,o=Sub,o=L",
                {"objectClass": "person", "cn": "Deep", "sn": "D",
                 "telephoneNumber": "777"},
            )
        )
        backend.modify_rdn(DN.parse("o=Sub,o=L"), Rdn.parse("o=Moved"))
        (hit,) = backend.search(DN.parse("o=L"), filter="(telephoneNumber=777)")
        assert str(hit.dn) == "cn=Deep,o=Moved,o=L"

    def test_index_created_over_existing_data(self):
        b = Backend(["o=L"])
        b.add(Entry("o=L", {"objectClass": "organization", "o": "L"}))
        b.add(
            Entry("cn=Pre,o=L", {"objectClass": "person", "cn": "Pre", "sn": "P",
                                 "mail": "pre@x"})
        )
        b.create_index("mail")
        (hit,) = b.search(DN.parse("o=L"), filter="(mail=pre@x)")
        assert hit.first("cn") == "Pre"

    def test_index_multivalued(self, backend):
        backend.add(
            Entry(
                "cn=Multi,o=L",
                {"objectClass": "person", "cn": "Multi", "sn": "M",
                 "telephoneNumber": ["100", "200"]},
            )
        )
        assert search_phones(backend, "100") == {"Multi"}
        assert search_phones(backend, "200") == {"Multi"}
        backend.modify(
            DN.parse("cn=Multi,o=L"),
            [Modification.delete("telephoneNumber", "100")],
        )
        assert search_phones(backend, "100") == set()
        assert search_phones(backend, "200") == {"Multi"}

    def test_index_case_insensitive(self, backend):
        add_person(backend, "A")
        backend.modify(
            DN.parse("cn=A,o=L"), [Modification.add("telephoneNumber", "AbC")]
        )
        assert search_phones(backend, "abc") == {"A"}

    def test_base_scoping_respected(self, backend):
        backend.add(Entry("o=X,o=L", {"objectClass": "organization", "o": "X"}))
        backend.add(
            Entry("cn=In,o=X,o=L", {"objectClass": "person", "cn": "In", "sn": "I",
                                    "telephoneNumber": "100"})
        )
        add_person(backend, "Out", "100")
        hits = backend.search(DN.parse("o=X,o=L"), filter="(telephoneNumber=100)")
        assert [e.first("cn") for e in hits] == ["In"]

    def test_transaction_rollback_restores_index(self, backend):
        add_person(backend, "A", "100")
        with pytest.raises(Exception):
            with backend.transaction() as txn:
                txn.modify(
                    DN.parse("cn=A,o=L"),
                    [Modification.replace("telephoneNumber", "999")],
                )
                txn.delete(DN.parse("cn=Ghost,o=L"))
        assert search_phones(backend, "100") == {"A"}
        assert search_phones(backend, "999") == set()

    def test_create_index_idempotent(self, backend):
        backend.create_index("telephoneNumber")
        add_person(backend, "A", "100")
        assert search_phones(backend, "100") == {"A"}

    def test_duplicate_dn_not_double_counted(self, backend):
        add_person(backend, "A", "100")
        # Replacing with the same values must not corrupt the index.
        backend.modify(
            DN.parse("cn=A,o=L"), [Modification.replace("telephoneNumber", "100")]
        )
        assert search_phones(backend, "100") == {"A"}


#: Per indexed attribute, the values the operations write and the searches
#: probe: telephone numbers are near-unique keys, two of three room draws
#: land in one shared room, and the cn values include a renamed entry's.
INDEXED_VALUES = {
    "telephoneNumber": ("100", "200", "300"),
    "definityRoom": ("2B-110", "2B-110", "3C-200"),
    "cn": ("u1", "u2x", "u3"),
}

OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "delete", "set", "clear", "rename"]),
        st.sampled_from(["u1", "u2", "u3", "u4", "u5"]),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("attribute", list(INDEXED_VALUES))
@given(operations=OPS)
@settings(max_examples=60, deadline=None)
def test_indexed_search_always_equals_scan(attribute, operations):
    """Property: for any operation sequence, an indexed equality search
    returns exactly what a full scan returns.  For ``cn`` the rename
    re-keys the index: the old RDN value leaves it, the new one enters."""
    values = INDEXED_VALUES[attribute]
    indexed = Backend(["o=L"])
    plain = Backend(["o=L"])
    for b in (indexed, plain):
        b.add(Entry("o=L", {"objectClass": "organization", "o": "L"}))
    indexed.create_index(attribute)

    for op, user, choice in operations:
        value = values[choice]
        for b in (indexed, plain):
            try:
                if op == "add":
                    b.add(
                        Entry(
                            f"cn={user},o=L",
                            {"objectClass": "person", "cn": user, "sn": user,
                             attribute: value},
                        )
                    )
                elif op == "delete":
                    b.delete(DN.parse(f"cn={user},o=L"))
                elif op == "set":
                    b.modify(
                        DN.parse(f"cn={user},o=L"),
                        [Modification.replace(attribute, value)],
                    )
                elif op == "clear":
                    b.modify(
                        DN.parse(f"cn={user},o=L"),
                        [Modification.delete(attribute)],
                    )
                elif op == "rename":
                    b.modify_rdn(
                        DN.parse(f"cn={user},o=L"), Rdn.parse(f"cn={user}x")
                    )
            except Exception:
                pass
        for probe in set(values):
            via_index = {
                str(e.dn)
                for e in indexed.search(
                    DN.parse("o=L"), filter=f"({attribute}={probe})"
                )
            }
            via_scan = {
                str(e.dn)
                for e in plain.search(
                    DN.parse("o=L"), filter=f"({attribute}={probe})"
                )
            }
            assert via_index == via_scan


class TestIndexSelectivity:
    def test_most_selective_probe_wins(self):
        b = Backend(["o=L"])
        b.add(Entry("o=L", {"objectClass": "organization", "o": "L"}))
        b.create_index("objectClass")
        b.create_index("telephoneNumber")
        for i in range(50):
            b.add(
                Entry(
                    f"cn=U{i},o=L",
                    {"objectClass": "person", "cn": f"U{i}", "sn": "U",
                     "telephoneNumber": str(1000 + i)},
                )
            )
        candidates = b._index_candidates(
            __import__("repro.ldap.filter", fromlist=["parse_filter"]).parse_filter(
                "(&(objectClass=person)(telephoneNumber=1007))"
            )
        )
        # The key-attribute bucket (size 1), not the person bucket (size 50).
        assert candidates is not None and len(candidates) == 1
        hits = b.search(
            DN.parse("o=L"),
            filter="(&(objectClass=person)(telephoneNumber=1007))",
        )
        assert [e.first("cn") for e in hits] == ["U7"]


# -- every search against a reference scan -------------------------------------

#: Indexed attributes (cn is also every person's RDN) and unindexed ones.
PLAN_INDEXED = ("telephoneNumber", "definityRoom", "cn")
PLAN_VALUES = {
    "telephoneNumber": ("100", "200", "300"),
    "definityRoom": ("2B-110", "2b-110", "3C  200"),
    "cn": ("u1", "U2", "n3"),
    "mail": ("a@x", "b@x"),
    "sn": ("Lee", "lee", "Ng"),
}

MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "replace", "add_value", "delete_value", "delete_attr",
             "delete", "rename", "rename_ou"]
        ),
        st.sampled_from(sorted(PLAN_VALUES)),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=25,
)

_ATTR_NAMES = st.sampled_from(sorted(PLAN_VALUES) + ["CN", "DefinityRoom"])
_CANONICAL = {name.lower(): name for name in PLAN_VALUES}


@st.composite
def _equality_texts(draw):
    name = draw(_ATTR_NAMES)
    values = PLAN_VALUES[_CANONICAL[name.lower()]]
    return f"({name}={draw(st.sampled_from(values + ('none',)))})"


_LEAF_FILTERS = st.one_of(
    _equality_texts(),
    _ATTR_NAMES.map(lambda name: f"({name}=*)"),
    st.sampled_from(["(cn=u*)", "(definityRoom=*110)", "(objectClass=person)"]),
)
_SEARCH_FILTERS = st.one_of(
    _equality_texts(),
    _LEAF_FILTERS,
    st.lists(_LEAF_FILTERS, min_size=1, max_size=3).map(
        lambda parts: "(&" + "".join(parts) + ")"
    ),
    st.lists(_LEAF_FILTERS, min_size=1, max_size=3).map(
        lambda parts: "(|" + "".join(parts) + ")"
    ),
    _LEAF_FILTERS.map(lambda part: f"(!{part})"),
    st.tuples(_equality_texts(), _LEAF_FILTERS).map(
        lambda pair: "(&{}(!{}))".format(*pair)
    ),
)

SEARCHES = st.lists(
    st.tuples(
        _SEARCH_FILTERS,
        st.sampled_from([Scope.BASE, Scope.ONE, Scope.SUB, Scope.SUB]),
        st.integers(min_value=0, max_value=19),
        st.sampled_from([0, 0, 1, 2]),
        st.sampled_from([(), ("cn",), ("*",), ("CN", "definityRoom")]),
    ),
    min_size=1,
    max_size=8,
)


def _mutate(backend: Backend, op: str, attribute: str, choice: int) -> None:
    entries = backend.all_entries()
    people = [e for e in entries if e.has("sn")]
    units = [e for e in entries if e.has("ou")]
    value = PLAN_VALUES[attribute][choice % len(PLAN_VALUES[attribute])]
    if op == "add":
        unit = units[choice % len(units)].dn
        name = f"n{choice}"
        attrs = {"objectClass": "person", "cn": name, "sn": "Lee"}
        if attribute != "cn":
            attrs[attribute] = value
        backend.add(Entry(unit.child(Rdn.single("cn", name)), attrs))
        return
    if op == "rename_ou":
        unit = units[choice % len(units)].dn
        backend.modify_rdn(unit, Rdn.single("ou", f"g{choice}"))
        return
    if not people:
        return
    person = people[choice % len(people)].dn
    if op == "replace":
        backend.modify(person, [Modification.replace(attribute, value)])
    elif op == "add_value":
        backend.modify(person, [Modification.add(attribute, value)])
    elif op == "delete_value":
        backend.modify(person, [Modification.delete(attribute, value)])
    elif op == "delete_attr":
        backend.modify(person, [Modification.delete(attribute)])
    elif op == "delete":
        backend.delete(person)
    elif op == "rename":
        name = value if attribute == "cn" else f"r{choice}"
        backend.modify_rdn(person, Rdn.single("cn", name))


def _reference(backend, base, scope, compiled, size_limit):
    """Sorted DN keys, in scope, ``matches``: what a search must answer."""
    if not backend.contains(base):
        return "no such object"
    hits = [
        entry
        for _, entry in sorted(backend._entries.items())
        if (
            entry.dn == base if scope is Scope.BASE
            else (not entry.dn.is_root() and entry.dn.parent() == base)
            if scope is Scope.ONE
            else entry.dn.is_under(base)
        )
        and compiled.matches(entry)
    ]
    if size_limit and len(hits) > size_limit:
        return "size limit exceeded"
    return hits


def _answer(backend, base, scope, compiled, selected, size_limit):
    try:
        return backend.search(base, scope, compiled, selected, size_limit)
    except LdapError as exc:
        if exc.code is ResultCode.NO_SUCH_OBJECT:
            return "no such object"
        assert exc.code is ResultCode.SIZE_LIMIT_EXCEEDED
        return "size limit exceeded"


@given(mutations=MUTATIONS, searches=SEARCHES)
@settings(max_examples=150, deadline=None)
def test_every_search_equals_a_reference_scan(mutations, searches):
    """Property: after any mix of adds, modifies (replace, add, delete a
    value, delete an attribute), deletes and renames (of a leaf, or of a
    unit with its subtree), every search in every scope returns the
    entries a reference scan finds, in DN-key order, with the same size
    limit and projection; unprojected hits are the stored objects.  The
    index tables then equal the ones a fresh ``create_index`` builds."""
    backend = Backend(["o=L"])
    backend.add(Entry("o=L", {"objectClass": "organization", "o": "L"}))
    for unit in ("A", "B"):
        backend.add(Entry(f"ou={unit},o=L", {"objectClass": "organizationalUnit",
                                            "ou": unit}))
    for i in range(6):
        backend.add(Entry(f"cn=u{i},ou={'AB'[i % 2]},o=L", {
            "objectClass": "person", "cn": f"u{i}",
            **{name: values[i % len(values)]
               for name, values in PLAN_VALUES.items() if name != "cn"},
        }))
    for attribute in PLAN_INDEXED:
        backend.create_index(attribute)
    for op, attribute, choice in mutations:
        try:
            _mutate(backend, op, attribute, choice)
        except LdapError:
            pass

    suffix = DN.parse("o=L")
    bases = [suffix] * 8 + [e.dn for e in backend.all_entries()] + [
        DN.parse("ou=Gone,o=L")
    ]
    for text, scope, pick, size_limit, selected in searches:
        base = bases[pick % len(bases)]
        compiled = parse_filter(text)
        got = _answer(backend, base, scope, compiled, selected, size_limit)
        want = _reference(backend, base, scope, compiled, size_limit)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want, text
        elif selected and "*" not in selected:
            assert [(hit.dn, hit.attributes.to_dict()) for hit in got] == [
                (entry.dn, entry.attributes.select(selected).to_dict())
                for entry in want
            ], text
        else:
            assert len(got) == len(want), text
            assert all(hit is entry for hit, entry in zip(got, want)), text

    for attribute in PLAN_INDEXED:
        fresh = Backend(["o=L"])
        fresh._entries = dict(backend._entries)
        fresh.create_index(attribute)
        key = attribute.lower()
        assert backend._indexes[key] == fresh._indexes[key]
