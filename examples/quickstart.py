#!/usr/bin/env python3
"""Quickstart: the MetaComm loop in two minutes.

Builds a full deployment (LDAP server + LTAP gateway + Definity PBX +
messaging platform + Update Manager), then shows the two update paths of
the paper's Figure 1:

1. an LDAP client (any LDAP tool) creates a person — the PBX station and
   the voice mailbox appear automatically;
2. a PBX administrator changes the station on the legacy craft terminal —
   the directory follows.

Run:  python examples/quickstart.py
"""

from repro.core import MetaComm, MetaCommConfig
from repro.schemas import PERSON_CLASSES


def main() -> None:
    print("== Building the MetaComm deployment ==")
    system = MetaComm(MetaCommConfig(organizations=("Marketing", "R&D")))
    conn = system.connection()  # through the LTAP gateway

    print("\n== Path 1: update through LDAP (the WBA / browser path) ==")
    conn.add(
        "cn=John Doe,o=Marketing,o=Lucent",
        {
            "objectClass": list(PERSON_CLASSES),
            "cn": "John Doe",
            "sn": "Doe",
            "definityExtension": "4100",
            "definityRoom": "2B-110",
        },
    )
    print("Added cn=John Doe with extension 4100.")
    print("PBX station:     ", system.pbx().station("4100"))
    print("Voice subscriber:", system.messaging.subscriber("+1 908 582 4100"))

    entry = conn.get("cn=John Doe,o=Marketing,o=Lucent")
    print("Directory entry now carries device-generated data:")
    print("  telephoneNumber =", entry.get("telephoneNumber"))
    print("  mpMailboxId     =", entry.get("mpMailboxId"))

    print("\n== Path 2: direct device update (the legacy craft terminal) ==")
    terminal = system.terminal()
    response = terminal.execute("change station 4100 room 5D-200 cos 2")
    print(response.text)
    entry = conn.get("cn=John Doe,o=Marketing,o=Lucent")
    print("Directory followed the device:")
    print("  definityRoom =", entry.get("definityRoom"))
    print("  definityCOS  =", entry.get("definityCOS"))
    print("  lastUpdater  =", entry.get("lastUpdater"))

    print("\n== Consistency ==")
    print("All repositories consistent:", system.consistent())
    um_counts = {
        name: int(system.obs.registry.value(f"metacomm_um_{name}_total"))
        for name in ("ldap_events", "ddus", "fanout", "reapplied",
                     "supplemental_writes")
    }
    print("Update Manager counts:      ", um_counts)


if __name__ == "__main__":
    main()
