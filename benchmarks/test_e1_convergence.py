"""E1 — Write-write consistency under mixed update streams.

Claim (sections 4.4/5.1): updates may arrive through LDAP and directly at
the devices; MetaComm "ensures that the repositories converge to the same
values after some delay".  We drive mixed streams at several DDU fractions
and verify that *every* repository holds identical data afterwards, at any
mix — the paper's headline consistency guarantee.
"""

import pytest
from conftest import fresh_system, report

from repro.workloads import apply_stream, make_population, make_stream, populate_via_ldap

RESULTS: list[tuple] = []


@pytest.mark.parametrize("ddu_fraction", [0.0, 0.2, 0.5, 0.8])
def test_e1_mixed_stream_converges(benchmark, ddu_fraction):
    people = make_population(15)
    events_per_round = 60

    def setup():
        system = fresh_system()
        populate_via_ldap(system, people)
        events = make_stream(
            people, events_per_round, ddu_fraction=ddu_fraction, seed=17
        )
        return (system, events), {}

    def run(system, events):
        apply_stream(system, events)
        return system

    system = benchmark.pedantic(run, setup=setup, rounds=3)
    problems = system.inconsistencies()
    assert problems == [], problems

    ddus = int(system.obs.registry.value("metacomm_um_ddus_total"))
    RESULTS.append(
        (
            f"{ddu_fraction:.0%}",
            events_per_round,
            ddus,
            int(system.obs.registry.value("metacomm_um_reapplied_total")),
            "yes",
        )
    )
    if ddu_fraction == 0.8:
        report(
            "E1: convergence under mixed LDAP/DDU update streams",
            ["DDU fraction", "updates", "DDUs seen", "reapplied", "converged"],
            RESULTS,
        )


def test_e1_interleaved_paths_same_entry(benchmark):
    """The adversarial case: alternate LDAP and DDU updates to one entry."""
    system = fresh_system()
    people = make_population(1)
    populate_via_ldap(system, people)
    person = people[0]
    conn = system.connection()
    dn = system.suffix.child(f"cn={person.cn}")
    from repro.ldap import Modification

    counter = iter(range(100000))

    def ping_pong():
        i = next(counter)
        conn.modify(dn, [Modification.replace("definityCOS", str(i % 9 + 1))])
        system.pbx().modify(
            person.extension, {"Room": f"R{i % 100}"}, agent="craft"
        )

    benchmark(ping_pong)
    assert system.consistent()
