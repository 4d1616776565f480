"""E6 — Running LTAP as a gateway vs as a library (section 5.5).

Claim: "it would have forced the combined LTAP/UM to process read
requests.  As it is now ... the UM machine does not need to do any read
processing.  Since LDAP workloads are heavily read-oriented, this offers
substantial scalability advantages."

We run the same read-heavy workload against both deployments and measure
the read work landing on the UM machine: zero in gateway mode, one unit
per read in library mode.
"""

from conftest import person_attrs, report

from repro.ldap import LdapConnection, LdapServer, Scope
from repro.ltap import LtapGateway

READS_PER_ROUND = 200
ROWS: list[tuple] = []


def build(library_mode: bool):
    server = LdapServer(["o=Lucent"])
    um_work = {"reads": 0}

    def read_tax():
        um_work["reads"] += 1

    gateway = LtapGateway(server, library_mode=library_mode, read_tax=read_tax)
    conn = LdapConnection(gateway)
    conn.add("o=Lucent", {"objectClass": "organization", "o": "Lucent"})
    for i in range(50):
        conn.add(
            f"cn=U{i},o=Lucent", person_attrs(f"U{i}", "U")
        )
    return gateway, conn, um_work


def run_reads(conn):
    for i in range(READS_PER_ROUND):
        conn.search("o=Lucent", Scope.SUB, f"(cn=U{i % 50})")


def test_e6_gateway_mode_reads(benchmark):
    gateway, conn, um_work = build(library_mode=False)
    benchmark(run_reads, conn)
    # The scalability claim: the UM did no read processing at all.
    assert um_work["reads"] == 0
    reads = int(gateway.registry.value("metacomm_ltap_requests_total", kind="read"))
    assert reads >= READS_PER_ROUND
    ROWS.append(("gateway", reads, um_work["reads"]))


def test_e6_library_mode_reads(benchmark):
    gateway, conn, um_work = build(library_mode=True)
    benchmark(run_reads, conn)
    # Library coupling: every read also taxes the UM process.
    reads = int(gateway.registry.value("metacomm_ltap_requests_total", kind="read"))
    assert um_work["reads"] == reads
    ROWS.append(("library", reads, um_work["reads"]))
    report(
        "E6: read work landing on the UM machine (read-heavy workload)",
        ["LTAP deployment", "reads served", "reads processed by UM"],
        ROWS,
    )


def test_e6_independent_upgrade(benchmark):
    """The second gateway advantage: LTAP and UM upgrade independently.
    Swapping the trigger set (an 'LTAP upgrade') requires no change to the
    server or clients."""
    gateway, conn, _ = build(library_mode=False)
    from repro.ltap import Trigger

    def upgrade_cycle():
        trigger = gateway.register_trigger(Trigger(action=lambda e: None))
        gateway.unregister_trigger(trigger.name)

    benchmark(upgrade_cycle)
    assert conn.search("o=Lucent", Scope.BASE)  # still serving
