"""Every value search MetaComm makes is answered by an equality index.

The index set is derived in ``MetaComm.__init__`` from the device
bindings' directory keys plus the two attributes the shipped system also
searches by value (``cn`` and ``definityRoom``).  This drives every update
path of Figure 1 and the read paths, and checks that no equality search
falls back to scanning the DIT.  ``objectClass`` is the one deliberate
exception: its ``person`` bucket is nearly the whole DIT, so class
searches scan.
"""

import pytest

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import Scope
from repro.ldap.filter import (
    _Parser,
    And,
    Approx,
    Equality,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    Substrings,
)
from repro.wba.app import WebAdmin


def _equality_attributes(compiled) -> set[str]:
    """Attributes of the Equality probes an index lookup considers."""
    parts = compiled.parts if isinstance(compiled, And) else (compiled,)
    return {p.attribute.lower() for p in parts if isinstance(p, Equality)}


@pytest.fixture
def system():
    return MetaComm(MetaCommConfig(organizations=("Marketing",)))


@pytest.fixture
def scans(system, monkeypatch):
    """Filters of the equality searches the backend answered by a scan."""
    backend = system.server.backend
    lookup = backend._index_candidates
    seen: list[str] = []

    def spy(compiled):
        candidates = lookup(compiled)
        if candidates is None and _equality_attributes(compiled) - {"objectclass"}:
            seen.append(str(compiled))
        return candidates

    monkeypatch.setattr(backend, "_index_candidates", spy)
    return seen


def test_index_set_is_derived_from_bindings(system):
    keys = {b.to_ldap.key_target.lower() for b in system.um.bindings}
    assert system.server.backend.indexed_attributes() == sorted(
        keys | {"cn", "definityroom"}
    )


def test_no_equality_search_scans(system, scans):
    wba = WebAdmin(system)
    dn = wba.create_user(
        "Marketing", full_name="Ann Lee", surname="Lee",
        extension="4100", room="2B-110",
    )
    wba.update_user(dn, room="3C-200")
    wba.update_user(dn, full_name="Ann Leeds")
    renamed = "cn=Ann Leeds,o=Marketing,o=Lucent"

    terminal = system.terminal()
    terminal.execute("change station 4100 room 5D")
    terminal.execute('add station 4200 name "Smith, Pat" room 5D')

    conn = system.connection()
    (by_ext,) = conn.search(system.suffix, Scope.SUB, "(definityExtension=4100)")
    assert str(by_ext.dn) == renamed
    by_room = conn.search(system.suffix, Scope.SUB, "(definityRoom=5D)")
    assert {e.first("cn") for e in by_room} == {"Ann Leeds", "Pat Smith"}

    system.sync.synchronize(system.pbx().name)
    wba.delete_user(renamed)

    assert system.consistent()
    assert scans == []


class _TableWrites(dict):
    """An index table that logs every write made to it."""

    def __init__(self, table, log, name):
        super().__init__(table)
        self.log, self.name = log, name

    def setdefault(self, key, default=None):
        self.log.append(self.name)
        return super().setdefault(key, default)

    def __setitem__(self, key, value):
        self.log.append(self.name)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.log.append(self.name)
        super().__delitem__(key)


class TestReadCost:
    """What one read through LTAP pays for: no filter parse, no per-hit
    filter test for an indexed equality, no index for a one-entry read,
    and a write re-indexes only the attributes it changed."""

    @pytest.fixture
    def fleet(self, system):
        wba = WebAdmin(system)
        dn = wba.create_user(
            "Marketing", full_name="Ann Lee", surname="Lee",
            extension="4100", room="2B-110",
        )
        wba.create_user(
            "Marketing", full_name="Bo Ng", surname="Ng",
            extension="4101", room="2B-110",
        )
        return wba, dn

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the general parser's and every filter kind's calls."""
        counts = {"parse": 0, "matches": []}
        parse = _Parser.parse

        def parse_spy(self):
            counts["parse"] += 1
            return parse(self)

        monkeypatch.setattr(_Parser, "parse", parse_spy)
        for kind in (And, Or, Not, Present, Equality, Substrings,
                     GreaterOrEqual, LessOrEqual, Approx):
            def matches_spy(self, entry, _matches=kind.matches):
                counts["matches"].append(type(self).__name__)
                return _matches(self, entry)

            monkeypatch.setattr(kind, "matches", matches_spy)
        return counts

    def test_an_indexed_search_parses_nothing_and_tests_no_hit(
        self, system, fleet, calls
    ):
        conn = system.connection()
        (hit,) = conn.search(system.suffix, Scope.SUB, "(definityExtension=4100)")
        assert hit is system.server.backend.get(hit.dn)
        assert calls == {"parse": 0, "matches": []}

    def test_a_form_read_parses_nothing_and_tests_only_its_entry(
        self, system, fleet, calls
    ):
        """The one test left is the base entry's objectClass presence:
        one dict membership, which no index answers."""
        wba, dn = fleet
        assert wba.user_form(dn)["extension"] == "4100"
        assert calls == {"parse": 0, "matches": ["Present"]}

    def test_a_one_entry_read_consults_no_index(self, system, fleet, monkeypatch):
        _, dn = fleet
        backend = system.server.backend
        consulted = []
        monkeypatch.setattr(
            backend, "_index_candidates", lambda f: consulted.append(f)
        )
        assert str(system.connection().get(dn).dn) == dn
        assert consulted == []

    def test_a_room_change_leaves_the_other_tables_alone(self, system, fleet):
        wba, dn = fleet
        backend = system.server.backend
        log: list[str] = []
        for name in list(backend._indexes):
            backend._indexes[name] = _TableWrites(backend._indexes[name], log, name)
        extension_bucket = backend._indexes["definityextension"]["4100"]
        cn_bucket = backend._indexes["cn"]["ann lee"]

        wba.update_user(dn, room="3C-200")

        assert system.connection().get(dn).first("definityRoom") == "3C-200"
        assert log and set(log) == {"definityroom"}
        assert backend._indexes["definityextension"]["4100"] is extension_bucket
        assert backend._indexes["cn"]["ann lee"] is cn_bucket
        assert system.consistent()
