"""Tests for the staged update-sequence pipeline (repro.core.pipeline).

Covers the pipeline's plan/outcome objects, the case-insensitive
fold-back merge, the atomic queue claim of the threaded hand-off, and —
the heart of the refactor — the guarantee that the failure policies
(abort, saga compensation) behave *identically* in the inline serial
fan-out and the parallel device-link fan-out (window and batch > 1):
same error-log records, same compensation order, same final device
states.
"""

import threading

import pytest

from repro.core import MetaComm, MetaCommConfig, PbxConfig, merge_attrs
from repro.core.queue import UpdateQueue
from repro.devices import InvalidFieldError
from repro.ldap import Modification
from repro.ldap.dn import DN
from repro.lexpress.descriptor import UpdateDescriptor, UpdateOp
from repro.schemas import PERSON_CLASSES


def person_attrs(cn, sn, **extra):
    attrs = {"objectClass": list(PERSON_CLASSES), "cn": cn, "sn": sn}
    attrs.update(extra)
    return attrs


def fleet(n_pbxes=3, **overrides):
    """A system whose PBXes all share the extension prefix, so one update
    fans out to every binding (n PBXes + the messaging platform)."""
    return MetaComm(
        MetaCommConfig(
            pbxes=[PbxConfig(f"pbx-{i + 1}", ("4",)) for i in range(n_pbxes)],
            **overrides,
        )
    )


def error_records(system):
    """(target, message, context) tuples of the error log, oldest first."""
    return [
        (
            entry.first("metacommErrorTarget"),
            entry.first("metacommError"),
            entry.first("description"),
        )
        for entry in system.error_log.entries()
    ]


def device_states(system):
    """Canonicalized dump of every device repository, keyed by binding."""
    return {
        binding.name: sorted(
            tuple(sorted((k, tuple(v)) for k, v in record.items()))
            for record in binding.filter.dump()
        )
        for binding in system.um.bindings
    }


#: The Update Manager's counts that serial and link fan-out must agree on.
UM_COUNT_FAMILIES = (
    "metacomm_um_ldap_events_total",
    "metacomm_um_ddus_total",
    "metacomm_um_fanout_total",
    "metacomm_um_reapplied_total",
    "metacomm_um_supplemental_writes_total",
    "metacomm_um_aborted_sequences_total",
    "metacomm_um_compensated_total",
)


def um_counts(system):
    """Each of :data:`UM_COUNT_FAMILIES`, summed over its labels."""
    return {
        family: system.obs.registry.value(family)
        for family in UM_COUNT_FAMILIES
    }


def explode(op, key):
    raise InvalidFieldError("injected device fault")


#: The two fan-out modes: inline paper-serial, and the event-driven
#: device links (the parallel mode) with window and batch > 1.
FANOUT_MODES = {
    "serial": {},
    "parallel": dict(device_links=True, link_window=4, link_batch=8),
}


class TestMergeAttrs:
    def test_existing_spelling_wins(self):
        dest = {"telephoneNumber": ["+1 908 582 4100"]}
        merge_attrs(dest, {"telephonenumber": ["+1 908 582 4200"]})
        assert dest == {"telephoneNumber": ["+1 908 582 4200"]}

    def test_new_attribute_keeps_first_spelling(self):
        dest = {}
        merge_attrs(dest, {"mpMailboxId": ["MB-1"]})
        merge_attrs(dest, {"MPMAILBOXID": ["MB-2"]})
        assert dest == {"mpMailboxId": ["MB-2"]}

    def test_values_are_copied(self):
        source = {"cn": ["A B"]}
        dest = merge_attrs({}, source)
        source["cn"].append("mutated")
        assert dest["cn"] == ["A B"]

    def test_returns_dest(self):
        dest = {}
        assert merge_attrs(dest, {"sn": ["B"]}) is dest

    def test_one_canonical_key_per_attribute(self):
        # Two case-variants in one source: last writer wins, one key out.
        dest = merge_attrs(
            {}, {"definityRoom": ["1A"], "definityroom": ["2B"]}
        )
        assert len(dest) == 1
        assert list(dest.values()) == [["2B"]]


class TestSupplementalCaseInsensitive:
    def test_apply_supplemental_folds_case_variants(self):
        system = MetaComm(MetaCommConfig())
        conn = system.connection()
        conn.add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        wrote = system.ldap_filter.apply_supplemental(
            DN.parse("cn=A B,o=Lucent"),
            {"definityRoom": ["1A"], "definityroom": ["2B"]},
            None,
        )
        assert wrote
        entry = conn.get("cn=A B,o=Lucent")
        assert entry.get("definityRoom") == ("2B",)

    def test_sequence_supplement_has_one_key_per_attribute(self):
        # The merge stage must never hand the LDAP filter a supplement
        # with two case-variant spellings of the same attribute.
        system = fleet(2)
        system.connection().add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        outcome = system.um.pipeline.last_outcome
        assert outcome is not None and outcome.supplemental_written
        names = [name.lower() for name in outcome.supplement]
        assert len(names) == len(set(names))


class TestQueueClaim:
    @staticmethod
    def descriptor(key):
        return UpdateDescriptor(UpdateOp.ADD, "ldap", key, new={"cn": [key]})

    def test_claim_returns_the_callers_descriptor(self):
        queue = UpdateQueue()
        foreign = queue.claim(self.descriptor("cn=other"))
        mine = self.descriptor("cn=mine")
        item = queue.claim(mine)
        # The claim pairs the serial with the caller's own descriptor; a
        # shared dequeue could have handed back the foreign item here,
        # pairing it with the wrong session.
        assert item.descriptor is mine
        assert len(queue) == 2
        # The foreign claim is older, so it keeps its place in line.
        assert not queue.wait_turn(item, timeout=0.01)
        queue.finish(foreign)
        assert queue.wait_turn(item, timeout=0.5)

    def test_claim_assigns_the_global_serial(self):
        queue = UpdateQueue()
        first = queue.claim(self.descriptor("a"))
        claimed = queue.claim(self.descriptor("b"))
        assert claimed.serial == first.serial + 1

    def test_claim_counts_as_enqueued_and_processed(self):
        queue = UpdateQueue()
        item = queue.claim(self.descriptor("a"))
        assert queue.registry.value("metacomm_queue_enqueued_total") == 1
        assert queue.registry.value("metacomm_queue_processed_total") == 0
        # Processed once its turn comes, not at claim time.
        assert queue.wait_turn(item, timeout=0.5)
        queue.finish(item)
        assert queue.registry.value("metacomm_queue_enqueued_total") == 1
        assert queue.registry.value("metacomm_queue_processed_total") == 1

    def test_threaded_trigger_ignores_foreign_queue_items(self):
        system = MetaComm(MetaCommConfig())
        system.um.start()
        ran = []
        original = system.um.pipeline.run

        def spying(descriptor, *args, **kwargs):
            ran.append(descriptor.key)
            return original(descriptor, *args, **kwargs)

        system.um.pipeline.run = spying
        try:
            # A descriptor claimed by someone else is never handed to this
            # trigger's lane worker: the trigger waits its turn behind it,
            # then processes its own descriptor only.
            foreign = system.um.queue.claim(self.descriptor("cn=parked"))
            timer = threading.Timer(0.1, system.um.queue.finish, (foreign,))
            timer.start()
            system.connection().add(
                "cn=A B,o=Lucent",
                person_attrs("A B", "B", definityExtension="4100"),
            )
            timer.join()
            assert system.pbx().contains("4100")
            assert ran == ["cn=A B,o=Lucent"]
            assert len(system.um.queue) == 0
        finally:
            system.um.stop()

    def test_threaded_concurrent_sessions_stay_paired(self):
        # Regression for the hand-off race: many clients racing through
        # the trigger; every session must process *its own* update (a
        # swapped item points the supplemental write at the wrong entry).
        system = MetaComm(MetaCommConfig())
        system.um.start()
        errors = []

        def client(i):
            try:
                system.connection().add(
                    f"cn=U{i},o=Lucent",
                    person_attrs(f"U{i}", "U", definityExtension=str(4100 + i)),
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            system.um.stop()
        assert errors == []
        assert system.consistent()
        for i in range(8):
            (entry,) = system.find_person(f"(definityExtension={4100 + i})")
            # The supplemental write landed on the right entry: the derived
            # phone number is present on the same person.
            assert entry.first("telephoneNumber") == f"+1 908 582 {4100 + i}"


class TestCompensationOrder:
    """Saga compensation with >= 3 bindings when a middle device rejects."""

    @pytest.fixture(params=sorted(FANOUT_MODES))
    def system(self, request):
        system = fleet(
            3,
            abort_on_failure=True,
            undo_on_failure=True,
            **FANOUT_MODES[request.param],
        )
        yield system
        system.close()

    def test_reverse_binding_order(self, system):
        compensations = []
        original = system.um._compensate

        def spying(applied, trace=None):
            compensations.append([binding.name for binding, _, _ in applied])
            return original(applied, trace)

        system.um._compensate = spying
        system.pbxes["pbx-3"].fault_injector = explode
        system.connection().add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        # pbx-1 and pbx-2 applied before the middle device rejected; the
        # saga undoes them in reverse order, in both fan-out modes.
        assert compensations == [["pbx-1", "pbx-2"]]
        outcome = system.um.pipeline.last_outcome
        assert outcome.aborted and outcome.abort_index == 2
        assert outcome.compensated == ["pbx-2", "pbx-1"]
        assert system.obs.registry.value("metacomm_um_compensated_total") == 2
        # Every repository is back to its pre-update state.
        for name in ("pbx-1", "pbx-2", "pbx-3"):
            assert not system.pbxes[name].contains("4100")
        assert system.messaging.size() == 0

    def test_parallel_rollback_covers_devices_past_the_abort_point(self):
        system = fleet(3, **FANOUT_MODES["parallel"])
        try:
            system.pbxes["pbx-1"].fault_injector = explode
            system.connection().add(
                "cn=A B,o=Lucent",
                person_attrs("A B", "B", definityExtension="4100"),
            )
            outcome = system.um.pipeline.last_outcome
            assert outcome.aborted and outcome.abort_index == 0
            # Every plan was already on its device link, so the later
            # devices committed optimistically; the rollback pass undid
            # them in reverse binding order.
            assert outcome.rolled_back == ["messaging", "pbx-3", "pbx-2"]
            assert (
                system.obs.registry.value("metacomm_um_rolled_back_total") == 3
            )
            for name in ("pbx-2", "pbx-3"):
                assert not system.pbxes[name].contains("4100")
            assert system.messaging.size() == 0
            # Rollback is not saga compensation: the counter stays at zero.
            assert system.obs.registry.value("metacomm_um_compensated_total") == 0
            assert len(system.error_log) == 1
        finally:
            system.close()


class TestSerialParallelEquivalence:
    """Byte-for-byte equivalent abort/saga semantics across the serial and
    the parallel (device-link) fan-out modes."""

    SCENARIOS = {
        "abort": dict(abort_on_failure=True, undo_on_failure=False),
        "abort+undo": dict(abort_on_failure=True, undo_on_failure=True),
        "best-effort": dict(abort_on_failure=False, undo_on_failure=False),
        "best-effort+undo": dict(
            abort_on_failure=False, undo_on_failure=True
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_failure_injection_matches(self, scenario):
        results = {}
        for mode in FANOUT_MODES:
            system = fleet(
                3, **FANOUT_MODES[mode], **self.SCENARIOS[scenario]
            )
            try:
                compensations = []
                original = system.um._compensate

                def spying(applied, trace=None, _log=compensations, _o=original):
                    _log.append(
                        [binding.name for binding, _, _ in applied]
                    )
                    return _o(applied, trace)

                system.um._compensate = spying
                conn = system.connection()
                conn.add(
                    "cn=OK,o=Lucent",
                    person_attrs("OK", "OK", definityExtension="4200"),
                )
                system.pbxes["pbx-3"].fault_injector = explode
                conn.add(
                    "cn=A B,o=Lucent",
                    person_attrs("A B", "B", definityExtension="4100"),
                )
                results[mode] = {
                    "errors": error_records(system),
                    "compensations": compensations,
                    "devices": device_states(system),
                    "inconsistencies": sorted(system.inconsistencies()),
                    "stats": um_counts(system),
                }
            finally:
                system.close()
        assert results["serial"] == results["parallel"], scenario

    def test_success_path_matches(self):
        results = {}
        for mode in FANOUT_MODES:
            system = fleet(3, **FANOUT_MODES[mode])
            try:
                conn = system.connection()
                conn.add(
                    "cn=A B,o=Lucent",
                    person_attrs("A B", "B", definityExtension="4100"),
                )
                conn.modify(
                    "cn=A B,o=Lucent",
                    [Modification.replace("definityRoom", "2B-110")],
                )
                entry = conn.get("cn=A B,o=Lucent")
                results[mode] = {
                    "entry": sorted(
                        (k, tuple(v))
                        for k, v in entry.attributes.to_dict().items()
                    ),
                    "devices": device_states(system),
                    "consistent": system.consistent(),
                }
            finally:
                system.close()
        assert results["serial"] == results["parallel"]
        assert results["serial"]["consistent"]


#: The legs an LTAP-originated journey times before the pipeline runs.
LTAP_SPANS = ["ltap.trigger", "ltap.server", "stage.intake", "queue.wait"]


class TestStagedOutcome:
    def test_stages_of_a_successful_sequence(self):
        system = fleet(2)
        system.connection().add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        # The stages and the planned devices ride on the closing event.
        done = system.last_trace("update").done.attributes
        assert list(done["stages"]) == LTAP_SPANS + [
            "closure.enrich", "stage.plan", "stage.fanout", "stage.merge",
            "ldap.supplemental",
        ]
        assert len(done["devices"]) == 3
        outcome = system.um.pipeline.last_outcome
        assert not outcome.aborted
        assert outcome.supplemental_written
        assert len(outcome.outcomes) == 3
        assert all(o.applied for o in outcome.outcomes)

    def test_aborted_sequence_stops_before_merge(self):
        system = fleet(2)
        system.pbxes["pbx-1"].fault_injector = explode
        system.connection().add(
            "cn=A B,o=Lucent",
            person_attrs("A B", "B", definityExtension="4100"),
        )
        outcome = system.um.pipeline.last_outcome
        assert outcome.aborted
        done = system.last_trace("update").done.attributes
        assert list(done["stages"]) == LTAP_SPANS + [
            "closure.enrich", "stage.plan", "stage.fanout",
        ]
        assert "supplemental" not in done
        assert not outcome.supplemental_written

    def test_stage_histogram_and_spans(self):
        system = fleet(2, **FANOUT_MODES["parallel"])
        try:
            system.connection().add(
                "cn=A B,o=Lucent",
                person_attrs("A B", "B", definityExtension="4100"),
            )
            histogram = system.obs.registry.get("metacomm_um_stage_seconds")
            for stage in ("intake", "enrich", "plan", "fanout", "merge",
                          "supplemental"):
                assert histogram.labels(stage=stage).count >= 1, stage
            trace = system.last_trace("update")
            names = set(trace.span_names())
            assert {
                "stage.intake", "closure.enrich", "stage.plan",
                "stage.fanout", "stage.merge", "ldap.supplemental",
            } <= names
            (fanout_span,) = trace.find("stage.fanout")
            assert fanout_span.attributes["mode"] == "links"
            # The in-flight gauge is back to zero once the barrier passed.
            assert (
                system.obs.registry.value("metacomm_um_fanout_parallelism")
                == 0
            )
        finally:
            system.close()
