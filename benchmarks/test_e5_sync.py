"""E5 — Synchronization of pre-existing repositories.

Claims (sections 4.4/5.1): synchronization populates the directory
initially and repairs divergence after disconnected operation; it runs as
one isolated sequence (quiesce + persistent connection); and its cost is
proportional to repository size.
"""

import pytest
from conftest import fresh_system, report

from repro.workloads import make_population, populate_via_pbx

ROWS: list[tuple] = []


@pytest.mark.parametrize("size", [25, 100, 400])
def test_e5_initial_load_scaling(benchmark, size):
    people = make_population(size)

    def setup():
        system = fresh_system()
        opened = []  # the persistent flag of every connection the UM opens
        open_connection = system.um.connections.open

        def spy(persistent=False):
            opened.append(persistent)
            return open_connection(persistent)

        system.um.connections.open = spy
        populate_via_pbx(system, people)
        return (system, opened), {}

    def load(system, opened):
        system.sync.synchronize("definity")
        return system, opened

    system, opened = benchmark.pedantic(load, setup=setup, rounds=3)
    assert len(system.find_person("(objectClass=person)")) == size
    assert system.messaging.size() == size
    assert system.consistent()
    ROWS.append((size, sum(opened)))
    if size == 400:
        report(
            "E5: initial load by repository size (time in the benchmark table)",
            ["stations", "persistent connections used"],
            ROWS,
        )


def test_e5_incremental_resync_cheaper_than_full(benchmark):
    """Resync after a small divergence skips everything already in sync."""
    system = fresh_system()
    people = make_population(100)
    populate_via_pbx(system, people)
    system.sync.synchronize("definity")

    # Diverge 5 records behind MetaComm's back.
    for person in people[:5]:
        system.pbx()._records[person.extension]["Room"] = "MOVED"

    def resync():
        return system.sync.synchronize("definity")

    report_obj = benchmark.pedantic(resync, rounds=1)
    assert report_obj.modified == 5
    assert report_obj.skipped >= 95
    assert system.consistent()
    report(
        "E5: incremental resync touches only the divergent records",
        ["metric", "value"],
        [
            ("records examined", report_obj.examined),
            ("modified", report_obj.modified),
            ("skipped (already in sync)", report_obj.skipped),
        ],
    )


def test_e5_sync_isolation(benchmark):
    """Updates from other sessions are refused while a sync is running."""
    from repro.ldap import LdapError, ResultCode
    from conftest import person_attrs

    system = fresh_system()
    people = make_population(20)
    populate_via_pbx(system, people)

    refused = []
    original = system.sync._cleanup_directory

    def probing(binding, keys, report_, session, connection):
        try:
            system.connection().add(
                "cn=Intruder,o=Lucent", person_attrs("Intruder", "I")
            )
        except LdapError as exc:
            refused.append(exc.code)
        return original(binding, keys, report_, session, connection)

    system.sync._cleanup_directory = probing

    def sync():
        return system.sync.synchronize("definity")

    benchmark.pedantic(sync, rounds=1)
    assert refused and all(code is ResultCode.BUSY for code in refused)
    report(
        "E5: quiesce refuses concurrent updates during sync",
        ["concurrent update attempts", "refused with BUSY"],
        [(len(refused), len(refused))],
    )
