"""E10 — Device-generated information (section 5.5).

Claim: "when a new extension is added to the messaging platform, a unique
id is created which might be needed in other devices.  In such situations,
the update augmented with the newly generated information might have to be
reapplied ... In MetaComm these cases were simple, because all generated
information is only destined for the LDAP server ... we update the LDAP
Server after all other devices are updated."

We verify the mailbox id lands in the directory within the same update
sequence, that the write-back is ordered after all device updates, and
that the augmentation fixpoint needs exactly one extra pass.
"""

import itertools

from conftest import fresh_system, person_attrs, report

_ext = itertools.count(4100)


def test_e10_mailbox_id_written_back(benchmark):
    system = fresh_system()
    conn = system.connection()

    def add_user():
        ext = str(40000 + next(_ext) % 10000)
        conn.add(
            f"cn=User{ext},o=Marketing,o=Lucent",
            person_attrs(f"User{ext}", "User", definityExtension=ext),
        )
        return ext

    ext = benchmark(add_user)
    entry = system.find_person(f"(definityExtension={ext})")[0]
    mailbox = system.messaging.mailbox_of(f"+1 908 582 {ext}")
    assert entry.get("mpMailboxId") == (mailbox,)
    report(
        "E10: device-generated mailbox id folded back into the directory",
        ["metric", "value"],
        [
            ("generated id", mailbox),
            ("in directory", entry.first("mpMailboxId")),
            (
                "supplemental writes",
                int(system.obs.registry.value(
                    "metacomm_um_supplemental_writes_total"
                )),
            ),
        ],
    )


def test_e10_ldap_written_after_devices(benchmark):
    """Ordering: the supplemental LDAP write happens after every device."""
    system = fresh_system()
    conn = system.connection()
    order: list[str] = []

    for binding in system.um.bindings:
        original = binding.filter.apply

        def tracking(update, _orig=original, _name=binding.name):
            order.append(_name)
            return _orig(update)

        binding.filter.apply = tracking

    original_supplemental = system.ldap_filter.apply_supplemental

    def tracking_supplemental(dn, attrs, session=None):
        order.append("ldap-write-back")
        return original_supplemental(dn, attrs, session)

    system.ldap_filter.apply_supplemental = tracking_supplemental

    def add():
        order.clear()
        ext = str(40000 + next(_ext) % 10000)
        conn.add(
            f"cn=Order{ext},o=Marketing,o=Lucent",
            person_attrs(f"Order{ext}", "O", definityExtension=ext),
        )

    benchmark(add)
    assert order[-1] == "ldap-write-back"
    assert set(order[:-1]) == {"definity", "messaging"}


def test_e10_generated_ids_unique_across_population(benchmark):
    system = fresh_system()
    conn = system.connection()

    def add_batch():
        ids = []
        for i in range(20):
            ext = str(40000 + next(_ext) % 10000)
            conn.add(
                f"cn=Batch{ext},o=Marketing,o=Lucent",
                person_attrs(f"Batch{ext}", "B", definityExtension=ext),
            )
            (entry,) = system.find_person(f"(definityExtension={ext})")
            ids.append(entry.first("mpMailboxId"))
        return ids

    ids = benchmark.pedantic(add_batch, rounds=1)
    assert len(set(ids)) == len(ids)
    assert all(i and i.startswith("MB-") for i in ids)
