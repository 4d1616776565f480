#!/usr/bin/env python3
"""One simulated business day at a MetaComm site.

Morning: HR provisions new hires through the WBA.  All day: a mixed
stream of web-form edits and craft-terminal changes (the paper's premise:
"a small number of DDUs are made against any given entry per day").
Evening: the nightly resynchronization sweep confirms nothing drifted.

Run:  python examples/business_day.py
"""

from repro.core import MetaComm, MetaCommConfig, PbxConfig
from repro.wba import WebAdmin
from repro.workloads import (
    UpdatePath,
    apply_event,
    make_population,
    make_stream,
    populate_via_ldap,
)


def main() -> None:
    system = MetaComm(
        MetaCommConfig(
            organizations=("Marketing", "R&D", "Operations"),
            pbxes=[PbxConfig("pbx-main", ("4",))],
        )
    )
    wba = WebAdmin(system)

    print("== 08:30 — HR provisions the week's new hires ==")
    people = make_population(12, seed=20260705)
    populate_via_ldap(system, people)
    print(f"  {len(people)} users provisioned; "
          f"{system.pbx('pbx-main').size()} stations, "
          f"{system.messaging.size()} mailboxes")

    print("\n== 09:00-17:00 — the day's churn ==")
    events = make_stream(
        people, 40, ddu_fraction=0.25, conflict_probability=0.1, seed=42
    )
    ldap_count = ddu_count = 0
    for event in events:
        apply_event(system, event)
        if event.path is UpdatePath.DDU:
            ddu_count += 1
        else:
            ldap_count += 1
    print(f"  {ldap_count} web-form edits, {ddu_count} craft-terminal changes")
    registry = system.obs.registry
    print(f"  UM: {int(registry.value('metacomm_um_ldap_events_total'))} LDAP "
          f"events, {int(registry.value('metacomm_um_ddus_total'))} DDUs, "
          f"{int(registry.value('metacomm_um_fanout_total'))} device updates")

    print("\n== 12:10 — a visitor hotels at a shared desk ==")
    visitor = f"cn={people[0].cn},o=Lucent"
    wba.hotel_checkin(visitor, room="HOTEL-1", port="02B0101")
    print(f"  {people[0].cn} redirected to HOTEL-1")
    wba.hotel_checkout(visitor)
    print(f"  ... and back home at 17:55")

    print("\n== 23:00 — nightly resynchronization sweep ==")
    for device in ("pbx-main", "messaging"):
        report = system.sync.synchronize(device)
        print(f"  {report}")

    print("\n== End of day ==")
    print("  consistent:", system.consistent())
    print("  errors logged:", len(system.error_log))
    print(wba.render_user_list()[:600])


if __name__ == "__main__":
    main()
