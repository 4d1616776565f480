"""Ablation A3 — Failure policy: abort+log vs saga compensation.

Section 4.4 ships abort-and-log ("the update is aborted, an error is
logged into the directory, and a notification is sent to the
administrator") and sketches the future saga version ("use pre-update
information to attempt to undo device updates").  Both are implemented;
this ablation compares the residue each policy leaves after the same
injected failures: orphaned device records for abort+log (manual cleanup
debt), none for sagas — at the price of extra compensation operations.
"""

from conftest import person_attrs, report

from repro.core import MetaComm, MetaCommConfig
from repro.devices import InvalidFieldError

ROWS: list[tuple] = []
FAILURES = 10


def run_faulty_workload(undo: bool):
    system = MetaComm(
        MetaCommConfig(organizations=("Ops",), undo_on_failure=undo)
    )
    conn = system.connection()
    # The messaging platform rejects every provisioning attempt.
    system.messaging.fault_injector = lambda op, key: (_ for _ in ()).throw(
        InvalidFieldError("subscriber limit reached")
    )
    for i in range(FAILURES):
        conn.add(
            f"cn=U{i},o=Ops,o=Lucent",
            person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
        )
    return system


def test_a3_abort_and_log_leaves_orphans(benchmark):
    system = benchmark.pedantic(
        lambda: run_faulty_workload(undo=False), rounds=1
    )
    orphans = system.pbx().size()  # stations whose sequence aborted
    assert orphans == FAILURES
    assert len(system.error_log) == FAILURES
    assert system.obs.registry.value("metacomm_um_compensated_total") == 0
    ROWS.append(
        ("abort + log (shipped)", FAILURES, orphans, 0, len(system.error_log))
    )


def test_a3_saga_leaves_no_orphans(benchmark):
    system = benchmark.pedantic(
        lambda: run_faulty_workload(undo=True), rounds=1
    )
    orphans = system.pbx().size()
    assert orphans == 0
    assert system.obs.registry.value("metacomm_um_compensated_total") == FAILURES
    assert len(system.error_log) == FAILURES  # failures still reported
    ROWS.append(
        (
            "saga compensation (future work)",
            FAILURES,
            orphans,
            int(system.obs.registry.value("metacomm_um_compensated_total")),
            len(system.error_log),
        )
    )
    report(
        "A3: residue after 10 failed update sequences",
        ["policy", "failures", "orphaned device records",
         "compensations", "errors logged"],
        ROWS,
    )
