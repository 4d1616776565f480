"""Golden telemetry: one scripted scenario, its metrics and its journal.

The scenario drives every lifecycle fact the Update Manager reports —
LTAP add, modify and rename, an OSSI direct device update, a device
failure under abort and under saga compensation, a links-mode rollback
past the abort point, an admission rejection at the lane depth limit and
one audit cycle that finds drift — in two configurations: the paper's
single lane with inline fan-out, and two lanes over device links.

``test_matches_golden`` compares what the run exported with
``tests/golden/telemetry.json``: metric family names, kinds and label
sets, counter values, histogram sample counts, and the ordered journal
kinds with each event's attribute names.  The golden file is recorded by
running this module (``PYTHONPATH=src python -m tests.test_telemetry_golden``)
and is never edited by hand.

``test_derived_counters_match_the_journal`` checks, for every counter the
journal derives from one event kind, that its value equals what a
subscriber saw of that kind.  For the families derived from
``update.done`` it checks that each stage's sample count equals the
number of closing events whose stage timings carry it, and that the
supplemental-write count equals the number of closing events that carry
a write.  The device-link families, which the link dispatcher feeds
without an event, must equal the links' own ``snapshot()`` counts.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import UM_AGENT, MetaComm, MetaCommConfig
from repro.core.pipeline import STAGE_SPANS
from repro.devices import InvalidFieldError
from repro.ldap import Modification
from repro.ldap.result import LdapError
from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp
from repro.obs.events import (
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    UPDATE_DONE,
)
from repro.schemas import PERSON_CLASSES

GOLDEN = Path(__file__).parent / "golden" / "telemetry.json"

CONFIGS = {
    "lanes1-inline": dict(coordinator_lanes=1, lane_depth_limit=1),
    "lanes2-links": dict(
        coordinator_lanes=2, device_links=True, lane_depth_limit=1
    ),
}

#: Derived counters: (family, event kind, label attribute or None,
#: amount attribute or None).  The family's value for one label must
#: equal the count (or the attribute sum) of the kind's events carrying
#: that label.
DERIVED = [
    ("metacomm_um_rolled_back_total", "device.rollback", "device", None),
    ("metacomm_um_compensated_total", "saga.compensated", "device", None),
    ("metacomm_um_ddus_total", "ddu.received", "device", None),
    ("metacomm_queue_enqueued_total", "update.accepted", None, None),
    ("metacomm_queue_lane_enqueued_total", "update.accepted", "lane", None),
    ("metacomm_queue_processed_total", "update.claimed", None, None),
    (
        "metacomm_queue_admission_rejected_total",
        "update.rejected",
        "lane",
        None,
    ),
    ("metacomm_audit_cycles_total", "audit.cycle", None, None),
    ("metacomm_audit_mismatches_total", "audit.mismatch", "device", "count"),
    ("metacomm_alerts_fired_total", "alert.raised", "rule", None),
    ("metacomm_lockwitness_violations_total", "witness.violation", None, None),
]


def person_attrs(cn: str, sn: str, ext: str) -> dict:
    return {
        "objectClass": list(PERSON_CLASSES),
        "cn": cn,
        "sn": sn,
        "definityExtension": ext,
    }


def explode(op, key):
    raise InvalidFieldError("injected device fault")


def run_scenario(system: MetaComm) -> None:
    """The scripted scenario; every step is synchronous."""
    conn = system.connection()
    dn = "cn=Ann Lee,o=Lucent"
    conn.add(dn, person_attrs("Ann Lee", "Lee", "4100"))
    conn.modify(dn, [Modification.replace("roomNumber", "2B-110")])
    conn.modify_rdn(dn, "cn=Ann Smith")
    dn = "cn=Ann Smith,o=Lucent"

    system.terminal().execute("change station 4100 room 2B-111")

    # Abort: the PBX (first binding) rejects; over device links the
    # messaging platform has already committed and is rolled back.
    system.pbx().fault_injector = explode
    conn.add("cn=Bo Kim,o=Lucent", person_attrs("Bo Kim", "Kim", "4101"))
    system.pbx().fault_injector = None

    # Saga compensation: the PBX commits, the messaging platform rejects.
    system.um.undo_on_failure = True
    system.messaging.fault_injector = explode
    conn.add("cn=Cy Ng,o=Lucent", person_attrs("Cy Ng", "Ng", "4102"))
    system.messaging.fault_injector = None
    system.um.undo_on_failure = False

    # Admission: a rename routes to the serial lane (the only lane of a
    # single-lane queue); hold that lane at its depth limit of one.
    queue = system.um.queue
    held = queue.claim(
        UpdateDescriptor(
            op=UpdateOp.MODIFY, source="ldap", key=dn, old={}, new={}
        ),
        rename=True,
    )
    try:
        with pytest.raises(LdapError, match="BUSY"):
            conn.modify_rdn(dn, "cn=Ann Jones")
    finally:
        queue.finish(held)

    # Drift the auditor must find: a PBX write that bypasses the UM.
    system.pbx().modify("4100", {"Name": "Imposter, Ida"}, agent=UM_AGENT)
    system.auditor.run_cycle(full=True)


def metric_shape(system: MetaComm) -> dict:
    """Families with kinds and label sets; counter values; histogram
    sample counts.  Gauge values are left out (they read clocks)."""
    shape = {}
    for name, family in system.obs.registry.snapshot().items():
        samples = {}
        for sample in family["samples"]:
            labels = sample["labels"]
            key = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            if family["kind"] == "counter":
                samples[key] = sample["value"]
            elif family["kind"] == "histogram":
                samples[key] = sample["count"]
            else:
                samples[key] = None
        shape[name] = {
            "kind": family["kind"],
            "labelnames": family["labelnames"],
            "samples": samples,
        }
    return shape


def journal_shape(system: MetaComm) -> list:
    """The ordered journal kinds with their attribute names."""
    return [
        [event.kind, sorted(event.attributes)]
        for event in system.obs.journal.events()
    ]


def record(name: str) -> dict:
    system = MetaComm(MetaCommConfig(**CONFIGS[name]))
    try:
        run_scenario(system)
        return {"metrics": metric_shape(system), "journal": journal_shape(system)}
    finally:
        system.close()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    observed = record(name)
    assert sorted(observed["metrics"]) == sorted(golden["metrics"])
    for family, expected in golden["metrics"].items():
        assert observed["metrics"][family] == expected, family
    assert observed["journal"] == golden["journal"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_derived_counters_match_the_journal(name):
    system = MetaComm(MetaCommConfig(lock_witness=True, **CONFIGS[name]))
    seen = []
    system.obs.journal.subscribe(seen.append)
    try:
        run_scenario(system)
        registry = system.obs.registry
        for family, kind, label, amount in DERIVED:
            metric = registry.get(family)
            if metric is None:
                continue  # not exported in this configuration
            expected: Counter = Counter()
            for event in seen:
                if event.kind == kind:
                    key = event.attributes[label] if label else None
                    expected[key] += event.attributes[amount] if amount else 1
            observed: Counter = Counter()
            for key, child in metric.children():
                observed[dict(zip(metric.labelnames, key)).get(label)] += (
                    child.value
                )
            assert +observed == +expected, family
        stage_seconds = registry.get("metacomm_um_stage_seconds")
        counts = {
            dict(zip(stage_seconds.labelnames, key))["stage"]: child.count
            for key, child in stage_seconds.children()
        }
        closing = [e for e in seen if e.kind == UPDATE_DONE]
        assert closing
        for stage, span in STAGE_SPANS.items():
            carried = sum(span in e.attributes["stages"] for e in closing)
            assert counts.get(stage, 0) == carried, stage
        writes = [e for e in closing if "supplemental" in e.attributes]
        assert writes
        assert registry.value("metacomm_um_supplemental_writes_total") == len(
            writes
        )

        for kind, count in Counter(e.kind for e in seen).items():
            assert (
                registry.value("metacomm_journal_events_total", kind=kind)
                == count
            ), kind

        # The link families, fed by the dispatcher with each link's stats:
        # every flush counted, on the device it went to.
        links = system.links.snapshot() if system.links is not None else []
        assert bool(links) == bool(system.config.device_links)
        flushes = registry.get("metacomm_link_flushes_total")
        counted = flushes.total() if flushes is not None else 0
        assert counted == sum(row["flushes"] for row in links)
        for row in links:
            device = row["device"]
            assert (
                registry.value("metacomm_link_flushes_total", device=device)
                == row["flushes"]
            ), device
            ops = "metacomm_link_ops_total"
            assert (
                registry.value(ops, device=device, outcome="ok")
                == row["completed"]
            )
            assert (
                registry.value(ops, device=device, outcome="error")
                == row["failed"]
            )
            batch = registry.get("metacomm_link_batch_ops").labels(device=device)
            assert batch.count == row["flushes"], device
            assert batch.sum == row["completed"] + row["failed"], device

        # The health board's outcome feed is the journal's device events.
        for device, health in system.obs.health.snapshot().items():
            mine = [e for e in seen if e.attributes.get("device") == device]
            commits = [e for e in mine if e.kind == DEVICE_COMMIT]
            failures = [e for e in mine if e.kind == DEVICE_FAILURE]
            assert health["successes"] == len(commits), device
            assert health["failures"] == len(failures), device
            attempts = "metacomm_device_attempts_total"
            assert registry.value(
                attempts, device=device, outcome="ok"
            ) == len(commits)
            assert registry.value(
                attempts, device=device, outcome="error"
            ) == len(failures)
            assert health["last_applied_serial"] == max(
                e.attributes["serial"] for e in commits
            ), device
        assert system.lock_witness.ok
    finally:
        system.close()


if __name__ == "__main__":  # pragma: no cover - records the golden file
    out = {name: record(name) for name in sorted(CONFIGS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
