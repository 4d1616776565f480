"""F1 — Figure 1: the MetaComm architecture, end to end.

Claim (sections 1/4): an update entering through *either* path — the LDAP
directory or a legacy device — fans out through LTAP → Update Manager →
filters until every repository agrees.  The benchmark times one complete
traversal of each path and verifies every Figure-1 component took part.
"""

import itertools

from conftest import fresh_system, person_attrs, report


#: Unique 5-digit extensions inside the PBX's "4" prefix (a station
#: extension has 3–5 digits): one per round, for up to 10,000 rounds.
_extensions = (str(n) for n in range(40000, 50000))


def test_f1_ldap_path_full_stack(benchmark):
    """One LDAP add: gateway → trigger → UM → PBX + MP + supplemental."""
    system = fresh_system()
    conn = system.connection()

    def add_user():
        ext = next(_extensions)
        conn.add(
            f"cn=User {ext},o=Marketing,o=Lucent",
            person_attrs(f"User {ext}", "User", definityExtension=ext),
        )
        return ext

    ext = benchmark(add_user)

    # Every component of Figure 1 participated.
    registry = system.obs.registry
    updates = int(registry.value("metacomm_ltap_requests_total", kind="update"))
    ldap_events = int(registry.value("metacomm_um_ldap_events_total"))
    fanned_out = int(registry.value("metacomm_um_fanout_total"))
    supplemental = int(registry.value("metacomm_um_supplemental_writes_total"))
    assert updates > 0                                            # LTAP
    assert ldap_events > 0                                        # UM trigger
    assert fanned_out > 0                                         # filters
    assert system.pbx().contains(ext)                             # Definity
    assert system.messaging.contains(f"+1 908 582 {ext}")         # MP
    assert supplemental > 0                                       # write-back
    assert system.consistent()

    report(
        "F1: one LDAP-originated update traverses the whole architecture",
        ["component", "evidence"],
        [
            ("LTAP gateway", f"updates_processed={updates}"),
            ("Update Manager", f"ldap_events={ldap_events}"),
            ("device filters", f"fanned_out={fanned_out}"),
            ("LDAP write-back", f"supplemental={supplemental}"),
        ],
    )


def test_f1_ddu_path_full_stack(benchmark):
    """One craft-terminal change: device → filter → LDAP filter → LTAP →
    UM → fan-out (including conditional reapply at the origin)."""
    system = fresh_system()
    terminal = system.terminal()
    conn = system.connection()
    conn.add(
        "cn=John Doe,o=Marketing,o=Lucent",
        person_attrs("John Doe", "Doe", definityExtension="4100"),
    )
    rooms = itertools.count(100)

    def ddu():
        terminal.execute(f"change station 4100 room R{next(rooms) % 1000}")

    benchmark(ddu)

    ddus = int(system.obs.registry.value("metacomm_um_ddus_total"))
    reapplied = int(system.obs.registry.value("metacomm_um_reapplied_total"))
    assert ddus > 0
    assert reapplied > 0  # write-write consistency
    assert system.consistent()
    report(
        "F1: direct device updates loop back through LTAP",
        ["metric", "value"],
        [
            ("DDUs observed", ddus),
            ("reapplied to origin", reapplied),
            ("consistent", True),
        ],
    )
