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
from repro.ldap.filter import And, Equality
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
