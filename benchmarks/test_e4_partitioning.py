"""E4 — Partitioning constraints and update routing.

Claim (section 4.2): "Depending on the combination of constraint
satisfaction by the old and new attributes, different operations are done
on the target directory" — the add/modify/delete/skip matrix — and a
telephone-number change that moves a person between switches becomes a
delete at one PBX plus an add at another.
"""

import pytest
from conftest import person_attrs, report

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.lexpress import (
    MappingInstance,
    PartitionConstraint,
    TargetAction,
    UpdateDescriptor,
    UpdateOp,
    compile_mapping,
)

MAPPING = compile_mapping(
    """
    mapping ldap_to_pbx {
        source ldap;
        target pbx;
        key definityExtension -> Extension;
        map Name = cn;
    }
    """
)

WEST = MappingInstance(
    MAPPING, "ldap", "pbx-west", PartitionConstraint.compile('prefix(Extension, "41")')
)

MATRIX_ROWS: list[tuple] = []


@pytest.mark.parametrize(
    "old_ext,new_ext,expected",
    [
        ("9000", "4100", TargetAction.ADD),      # violates -> satisfies
        ("4100", "4101", TargetAction.MODIFY),   # satisfies -> satisfies
        ("4100", "9000", TargetAction.DELETE),   # satisfies -> violates
        ("9000", "9001", TargetAction.SKIP),     # violates -> violates
    ],
)
def test_e4_routing_matrix(benchmark, old_ext, new_ext, expected):
    descriptor = UpdateDescriptor(
        UpdateOp.MODIFY,
        "ldap",
        old_ext,
        old={"definityExtension": old_ext, "cn": "A B"},
        new={"definityExtension": new_ext, "cn": "A B"},
    )

    update = benchmark(WEST.translate, descriptor)
    assert update.action is expected
    MATRIX_ROWS.append(
        (
            f"{old_ext} ({'in' if old_ext.startswith('41') else 'out'})",
            f"{new_ext} ({'in' if new_ext.startswith('41') else 'out'})",
            expected.name,
        )
    )
    if len(MATRIX_ROWS) == 4:
        report(
            "E4: the section-4.2 partition routing matrix",
            ["old extension", "new extension", "action at pbx-west"],
            MATRIX_ROWS,
        )


def test_e4_full_stack_migration(benchmark):
    """End-to-end: one LDAP modify migrates the station between PBXes."""

    def setup():
        system = MetaComm(
            MetaCommConfig(
                pbxes=[PbxConfig("pbx-west", ("41",)), PbxConfig("pbx-east", ("43",))]
            )
        )
        conn = system.connection()
        conn.add(
            "cn=Mover,o=Lucent", person_attrs("Mover", "M", definityExtension="4100")
        )
        return (system, conn), {}

    def migrate(system, conn):
        from repro.ldap import Modification

        conn.modify(
            "cn=Mover,o=Lucent",
            [
                Modification.replace("definityExtension", "4300"),
                Modification.replace("telephoneNumber", "+1 908 582 4300"),
            ],
        )
        return system

    system = benchmark.pedantic(migrate, setup=setup, rounds=5)
    assert not system.pbx("pbx-west").contains("4100")
    assert system.pbx("pbx-east").contains("4300")
    assert system.consistent()
    def applied(name):
        return int(system.obs.registry.value(
            "metacomm_filter_events_total", filter=name, event="applied"
        ))

    report(
        "E4: cross-PBX migration (delete west, add east)",
        ["switch", "adds", "deletes"],
        [
            ("pbx-west", applied("pbx-west"), "1 delete"),
            ("pbx-east", applied("pbx-east"), "1 add"),
        ],
    )
