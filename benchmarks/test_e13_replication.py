"""E13 — Directory replication and relaxed write-write consistency.

Claim (section 2): "LDAP servers make extensive use of replication to make
directory information highly available ... Directory systems, such as
LDAP, maintain a relaxed write-write consistency by ensuring that updates
eventually result in the same values for object attributes being present
in each copy of the object."  (Section 4 extends the same model to the
meta-directory.)

We benchmark multi-master propagation, verify convergence under
conflicting writes, and show a read replica soaking up load behind the
LTAP-fronted master (the availability story).
"""

import pytest
from conftest import report

from repro.ldap import LdapConnection, LdapServer, Modification, Scope
from repro.ldap.replication import ReplicationEngine
from repro.ltap import LtapGateway

ROWS: list[tuple] = []

READS = ("search", "compare")
WRITES = ("add", "delete", "modify", "modifyrdn")


def served(server: LdapServer, ops) -> int:
    """Operations of the given types the server processed."""
    return int(sum(
        server.registry.value("metacomm_ldap_ops_total", op=op) for op in ops
    ))


def make_master(sid: str) -> LdapServer:
    server = LdapServer(["o=Lucent"], server_id=sid)
    LdapConnection(server).add(
        "o=Lucent", {"objectClass": "organization", "o": "Lucent"}
    )
    return server


@pytest.mark.parametrize("n_masters", [2, 3, 4])
def test_e13_mesh_convergence(benchmark, n_masters):
    def setup():
        servers = [make_master(f"m{i}") for i in range(n_masters)]
        engine = ReplicationEngine()
        engine.connect_mesh(servers)
        engine.propagate()
        # Each master takes 10 local writes, including conflicts on a
        # shared entry.
        for i, server in enumerate(servers):
            conn = LdapConnection(server)
            conn.add(
                f"cn=local-{i},o=Lucent",
                {"objectClass": "person", "cn": f"local-{i}", "sn": "L"},
            )
            try:
                conn.add(
                    "cn=shared,o=Lucent",
                    {"objectClass": "person", "cn": "shared", "sn": f"from-{i}"},
                )
            except Exception:
                pass
            for j in range(8):
                conn.modify(
                    f"cn=local-{i},o=Lucent",
                    [Modification.replace("description", f"v{j}")],
                )
        return (servers, engine), {}

    def converge(servers, engine):
        shipped = engine.propagate()
        return servers, engine, shipped

    servers, engine, shipped = benchmark.pedantic(converge, setup=setup, rounds=3)
    assert engine.converged()
    # Every master ends with every entry.
    assert all(s.size() == n_masters + 2 for s in servers)
    ROWS.append((n_masters, shipped, "yes"))
    if n_masters == 4:
        report(
            "E13: multi-master convergence",
            ["masters", "changes shipped in final round", "converged"],
            ROWS,
        )


def test_e13_conflicting_writes_converge_lww(benchmark):
    def setup():
        a, b = make_master("a"), make_master("b")
        engine = ReplicationEngine()
        engine.connect_mesh([a, b])
        LdapConnection(a).add(
            "cn=X,o=Lucent", {"objectClass": "person", "cn": "X", "sn": "X"}
        )
        engine.propagate()
        # Conflicting writes to the same attribute on both masters.
        LdapConnection(a).modify(
            "cn=X,o=Lucent", [Modification.replace("description", "from-a")]
        )
        LdapConnection(b).modify(
            "cn=X,o=Lucent", [Modification.replace("description", "from-b")]
        )
        return (a, b, engine), {}

    def converge(a, b, engine):
        engine.propagate()
        return a, b, engine

    a, b, engine = benchmark.pedantic(converge, setup=setup, rounds=3)
    assert engine.converged()
    va = a.get("cn=X,o=Lucent").first("description")
    vb = b.get("cn=X,o=Lucent").first("description")
    assert va == vb
    assert va in ("from-a", "from-b")


def test_e13_read_replica_behind_ltap_master(benchmark):
    """Availability deployment: clients write through LTAP to the master;
    a replica absorbs the read load and converges."""
    master = make_master("master")
    replica = make_master("replica")
    engine = ReplicationEngine()
    engine.connect(master, replica)
    engine.propagate()
    gateway = LtapGateway(master)
    writer = LdapConnection(gateway)
    reader = LdapConnection(replica)
    for i in range(20):
        writer.add(
            f"cn=U{i},o=Lucent", {"objectClass": "person", "cn": f"U{i}", "sn": "U"}
        )
    engine.propagate()

    def read_burst():
        return len(reader.search("o=Lucent", Scope.SUB, "(objectClass=person)"))

    count = benchmark(read_burst)
    assert count == 20
    # The master served no reads for this burst; the replica carried them.
    assert served(replica, READS) > 0
    report(
        "E13: read replica offloads the LTAP-fronted master",
        ["node", "reads served", "writes"],
        [
            ("master (behind LTAP)", served(master, READS),
             served(master, WRITES)),
            ("replica", served(replica, READS), served(replica, WRITES)),
        ],
    )
