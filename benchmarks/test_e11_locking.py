"""E11 — LTAP locking under contention (sections 4.3/4.4).

Claims: LTAP "provides locking facilities, forbidding updates to an entry
while trigger processing is being performed on that entry"; conflicting
LDAP updates are blocked "until the UM completes the update sequence";
independent entries do not contend.  We measure lost updates (none),
blocking behaviour, and lock-manager throughput.
"""

import threading

from conftest import fresh_system, person_attrs, report

from repro.ldap import DN, LdapError, Modification
from repro.ltap import LockManager


def count_acquisitions(locks):
    """Spy on ``locks.acquire``: how many acquisitions succeeded, and how
    many found the entry held by another owner when they started (checked
    under the manager's own condition, so no contention is missed)."""
    counts = {"acquired": 0, "contended": 0}
    acquire = locks.acquire

    def spy(dn, owner, timeout=None):
        with locks._cond:
            holder = locks.holder(dn)
            if holder is not None and holder is not owner:
                counts["contended"] += 1
            acquire(dn, owner, timeout)
            counts["acquired"] += 1

    locks.acquire = spy
    return counts


def test_e11_no_lost_updates_under_contention(benchmark):
    """Many threads update the same entry through LTAP; every successful
    write is serialized by the entry lock — final state equals some
    write, and the device agrees with the directory."""

    def setup():
        system = fresh_system(lock_timeout=5.0)
        system.connection().add(
            "cn=Hot,o=Marketing,o=Lucent",
            person_attrs("Hot", "H", definityExtension="4100"),
        )
        return (system, count_acquisitions(system.gateway.locks)), {}

    def hammer(system, counts):
        errors = []

        def writer(worker):
            conn = system.connection()
            for i in range(5):
                try:
                    conn.modify(
                        "cn=Hot,o=Marketing,o=Lucent",
                        [Modification.replace("definityCOS", str(worker))],
                    )
                except LdapError as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(1, 5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return system, errors, counts

    system, errors, counts = benchmark.pedantic(hammer, setup=setup, rounds=3)
    assert errors == []
    entry = system.connection().get("cn=Hot,o=Marketing,o=Lucent")
    cos = entry.first("definityCOS")
    assert cos in {"1", "2", "3", "4"}
    # The device converged to the same final write.
    assert system.pbx().station("4100")["COS"] == cos
    assert system.gateway.locks.held_count() == 0
    report(
        "E11: contended same-entry updates",
        ["metric", "value"],
        [
            ("writers x writes", "4 x 5"),
            ("lost updates", 0),
            ("lock acquisitions", counts["acquired"]),
            ("contended acquisitions", counts["contended"]),
        ],
    )


def test_e11_conflicting_update_blocked_while_sequence_runs(benchmark):
    """A writer hitting a locked entry gets BUSY after the timeout."""
    system = fresh_system(lock_timeout=0.02)
    system.connection().add(
        "cn=Hot,o=Marketing,o=Lucent",
        person_attrs("Hot", "H", definityExtension="4100"),
    )
    release = threading.Event()
    entered = threading.Event()
    from repro.ltap import Trigger

    def slow(event):
        entered.set()
        release.wait(5)

    system.gateway.register_trigger(Trigger(action=slow, name="slow"))
    t = threading.Thread(
        target=lambda: system.connection().modify(
            "cn=Hot,o=Marketing,o=Lucent",
            [Modification.replace("definityRoom", "X")],
        )
    )
    t.start()
    entered.wait(5)

    def blocked_probe():
        try:
            system.connection().modify(
                "cn=Hot,o=Marketing,o=Lucent",
                [Modification.replace("definityCOS", "3")],
            )
            return False
        except LdapError:
            return True

    blocked = benchmark(blocked_probe)
    release.set()
    t.join()
    assert blocked


def test_e11_lock_manager_throughput(benchmark):
    """Raw acquire/release cost of the per-DN lock manager."""
    locks = LockManager()
    dn = DN.parse("cn=X,o=Lucent")
    owner = object()

    def cycle():
        locks.acquire(dn, owner)
        locks.release(dn, owner)

    benchmark(cycle)
    assert not locks.is_locked(dn)


def test_e11_independent_entries_parallel(benchmark):
    """Updates to different entries never contend for the same lock."""

    def setup():
        system = fresh_system()
        counts = count_acquisitions(system.gateway.locks)
        conn = system.connection()
        for i in range(4):
            conn.add(
                f"cn=U{i},o=Marketing,o=Lucent",
                person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
            )
        return (system, counts), {}

    def parallel_writers(system, counts):
        threads = []
        for i in range(4):
            conn = system.connection()
            threads.append(
                threading.Thread(
                    target=conn.modify,
                    args=(
                        f"cn=U{i},o=Marketing,o=Lucent",
                        [Modification.replace("definityRoom", f"R{i}")],
                    ),
                )
            )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return system, counts

    system, counts = benchmark.pedantic(parallel_writers, setup=setup, rounds=3)
    assert counts["acquired"] >= 8
    assert counts["contended"] == 0
    assert system.consistent()
