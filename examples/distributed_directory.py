#!/usr/bin/env python3
"""A distributed deployment: remote clients, replicated directory.

Combines three pieces of the substrate that the paper leans on but
describes only briefly:

* the LTAP gateway served **over TCP**, so "any LDAP tool" can really be
  any process ("LDAP commands intended for the LDAP server are intercepted
  by LTAP", section 4.3);
* a **read replica** fed by the replication engine — section 2's "LDAP
  servers make extensive use of replication to make directory information
  highly available";
* the MetaComm pipeline running behind it all: the remote client's writes
  still provision the PBX and the messaging platform.

Run:  python examples/distributed_directory.py
"""

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import LdapConnection, LdapServer, Scope
from repro.ldap.net import LdapTcpServer, RemoteLdapHandler
from repro.ldap.replication import ReplicationEngine
from repro.schemas import PERSON_CLASSES


def main() -> None:
    print("== Building the site ==")
    system = MetaComm(MetaCommConfig(organizations=("Marketing",)))

    # A read replica of the master directory.
    replica = LdapServer(["o=Lucent"], server_id="replica")
    LdapConnection(replica).add(
        "o=Lucent", {"objectClass": ["top", "organization"], "o": "Lucent"}
    )
    replication = ReplicationEngine()
    replication.connect(system.server, replica)
    replication.propagate()

    with LdapTcpServer(system.gateway) as tcp:
        host, port = tcp.address
        print(f"LTAP gateway listening on {host}:{port}")

        print("\n== A remote admin tool connects over TCP ==")
        with RemoteLdapHandler(host, port) as wire:
            remote = LdapConnection(wire)
            remote.add(
                "cn=Wei Chen,o=Marketing,o=Lucent",
                {
                    "objectClass": list(PERSON_CLASSES),
                    "cn": "Wei Chen",
                    "sn": "Chen",
                    "definityExtension": "4107",
                },
            )
            entry = remote.get("cn=Wei Chen,o=Marketing,o=Lucent")
            print("Remote client sees mailbox:", entry.get("mpMailboxId"))

        print("\nThe devices were provisioned behind the socket:")
        print("  station:   ", system.pbx().station("4107"))
        print("  subscriber:", system.messaging.subscriber("+1 908 582 4107"))

    print("\n== Replication ships the changes to the read replica ==")
    shipped = replication.propagate()
    print(f"  {shipped} changes shipped; converged: {replication.converged()}")
    hits = LdapConnection(replica).search(
        "o=Lucent", Scope.SUB, "(definityExtension=4107)"
    )
    print("  replica search result:", [str(e.dn) for e in hits])
    def reads(server: LdapServer) -> int:
        return int(sum(
            server.registry.value("metacomm_ldap_ops_total", op=op)
            for op in ("search", "compare")
        ))

    print(
        "  reads served by replica:", reads(replica),
        "| master:", reads(system.server),
    )
    print("\nAll repositories consistent:", system.consistent())


if __name__ == "__main__":
    main()
