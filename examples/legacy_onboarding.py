#!/usr/bin/env python3
"""Onboarding a legacy switch into the meta-directory (paper section 4.4).

A Definity that has been administered for years holds the only copy of its
user data.  MetaComm's synchronization facility pulls it into the LDAP
directory ("This is necessary to populate the directory initially"), the
messaging platform gets subscribers for every extension, and the result is
exported as LDIF for the corporate directory team.

Run:  python examples/legacy_onboarding.py
"""

from repro.core import MetaComm, MetaCommConfig
from repro.ldap import write_ldif
from repro.workloads import make_population, populate_via_pbx


def main() -> None:
    system = MetaComm(MetaCommConfig())

    print("== Years of craft-terminal administration (simulated) ==")
    people = make_population(8, seed=2026)
    populate_via_pbx(system, people)
    print(system.terminal().execute("list station").text)
    print(f"\nDirectory entries before onboarding: "
          f"{len(system.find_person('(objectClass=person)'))}")

    print("\n== Initial load: synchronize(definity) ==")
    opened = []  # the persistent flag of each connection the sync opens
    open_connection = system.um.connections.open

    def counting_open(persistent=False):
        opened.append(persistent)
        return open_connection(persistent)

    system.um.connections.open = counting_open
    report = system.sync.synchronize("definity")
    print(" ", report)
    print("  The sync ran quiesced, as one persistent-connection sequence:")
    events = system.obs.registry.value(
        "metacomm_um_connection_events_total", kind="persistent"
    )
    print(f"    {sum(opened)} persistent connection(s) opened, "
          f"{int(events)} events delivered")

    print("\n== The integrated view ==")
    people_entries = system.find_person("(objectClass=person)")
    for entry in sorted(people_entries, key=lambda e: e.first("cn") or ""):
        print(f"  {entry.first('cn'):<22} ext={entry.first('definityExtension')}"
              f"  phone={entry.first('telephoneNumber')}"
              f"  mailbox={entry.first('mpMailboxId')}")
    print("\nMessaging subscribers provisioned:", system.messaging.size())
    print("Consistent:", system.consistent())

    print("\n== LDIF export for the corporate directory team ==")
    document = write_ldif(people_entries[:2])
    print(document)


if __name__ == "__main__":
    main()
