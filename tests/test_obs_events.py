"""The event journal: bounded ring, typed kinds, listeners, JSONL export,
and the journal's integration with the live update pipeline."""

import json
import threading

import pytest

from types import SimpleNamespace

from repro.obs import EventJournal, HealthBoard, MetricsRegistry
from repro.obs.events import (
    EVENT_KINDS,
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    UPDATE_ACCEPTED,
    UPDATE_CLAIMED,
)


class TestEvent:
    def test_emit_returns_event_with_sequence_and_time(self):
        journal = EventJournal()
        event = journal.emit(UPDATE_ACCEPTED, serial=1, key="cn=X")
        assert event.seq == 1
        assert event.ts > 0
        assert event.kind == UPDATE_ACCEPTED
        assert event.attributes == {"serial": 1, "key": "cn=X"}

    def test_trace_correlation_from_object_and_string(self):
        journal = EventJournal()
        trace = SimpleNamespace(trace_id="trace-76")  # e.g. a TraceView
        from_object = journal.emit(UPDATE_ACCEPTED, trace=trace)
        from_string = journal.emit(UPDATE_ACCEPTED, trace="trace-77")
        bare = journal.emit(UPDATE_ACCEPTED)
        assert from_object.trace_id == trace.trace_id
        assert from_string.trace_id == "trace-77"
        assert bare.trace_id is None

    def test_to_json_round_trips(self):
        journal = EventJournal()
        event = journal.emit(DEVICE_COMMIT, device="pbx", serial=3)
        parsed = json.loads(event.to_json())
        assert parsed["kind"] == DEVICE_COMMIT
        assert parsed["attributes"] == {"device": "pbx", "serial": 3}

    def test_kind_constants_are_unique_dotted_names(self):
        assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
        assert all("." in kind for kind in EVENT_KINDS)


class TestEventJournal:
    def test_bounded_ring_drops_oldest(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.emit(UPDATE_ACCEPTED, serial=i)
        assert len(journal) == 3
        serials = [e.attributes["serial"] for e in journal]
        assert serials == [2, 3, 4]
        # Sequence numbers keep counting across drops.
        assert [e.seq for e in journal] == [3, 4, 5]

    def test_drop_counter(self):
        registry = MetricsRegistry()
        journal = EventJournal(capacity=2, registry=registry)
        for i in range(5):
            journal.emit(UPDATE_ACCEPTED, serial=i)
        assert registry.value("metacomm_journal_dropped_total") == 3
        assert (
            registry.value(
                "metacomm_journal_events_total", kind=UPDATE_ACCEPTED
            )
            == 5
        )

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)

    def test_filter_by_kind_and_since(self):
        journal = EventJournal()
        journal.emit(UPDATE_ACCEPTED, serial=1)
        journal.emit(UPDATE_CLAIMED, serial=1)
        journal.emit(UPDATE_ACCEPTED, serial=2)
        accepted = journal.events(kind=UPDATE_ACCEPTED)
        assert [e.attributes["serial"] for e in accepted] == [1, 2]
        later = journal.events(since=accepted[0].seq)
        assert [e.seq for e in later] == [2, 3]
        assert journal.last(UPDATE_CLAIMED).attributes["serial"] == 1
        assert journal.last("no.such.kind") is None

    def test_tail(self):
        journal = EventJournal()
        for i in range(5):
            journal.emit(UPDATE_ACCEPTED, serial=i)
        assert [e.attributes["serial"] for e in journal.tail(2)] == [3, 4]
        assert journal.tail(0) == []

    def test_disabled_is_a_noop(self):
        journal = EventJournal(enabled=False)
        assert journal.emit(UPDATE_ACCEPTED) is None
        assert len(journal) == 0

    def test_clear(self):
        journal = EventJournal()
        journal.emit(UPDATE_ACCEPTED)
        journal.clear()
        assert len(journal) == 0

    def test_listeners_receive_events(self):
        journal = EventJournal()
        seen = []
        journal.subscribe(seen.append)
        journal.emit(UPDATE_ACCEPTED, serial=1)
        journal.emit(UPDATE_CLAIMED, serial=1)
        assert [e.kind for e in seen] == [UPDATE_ACCEPTED, UPDATE_CLAIMED]
        journal.unsubscribe(seen.append)
        journal.emit(UPDATE_ACCEPTED, serial=2)
        assert len(seen) == 2

    def test_broken_listener_does_not_break_emit(self):
        registry = MetricsRegistry()
        journal = EventJournal(registry=registry)
        board = HealthBoard(registry, journal=journal)

        def broken(event):
            raise RuntimeError("boom")

        journal.subscribe(broken)
        # A broken handler of the same kind, running after the health
        # feed and before the derived count, loses neither of them.
        journal.subscribe(broken, kinds=(DEVICE_FAILURE,))
        derived = registry.counter("derived_total", labelnames=("device",))
        journal.derive(DEVICE_FAILURE, derived)
        event = journal.emit(UPDATE_ACCEPTED)
        assert event is not None
        assert len(journal) == 1
        journal.emit(DEVICE_FAILURE, device="pbx", serial=1, duration=0.01)
        assert registry.value("derived_total", device="pbx") == 1
        assert board.device("pbx").streak == 1
        assert registry.value(
            "metacomm_device_attempts_total", device="pbx", outcome="error"
        ) == 1
        assert registry.value(
            "metacomm_journal_events_total", kind=DEVICE_FAILURE
        ) == 1

    def test_failing_derivation_skips_no_later_one(self):
        registry = MetricsRegistry()
        journal = EventJournal(registry=registry)
        # The first two raise KeyError on an event without ``lane`` or
        # ``duration``; the derivations after them still record.
        by_lane = registry.counter("by_lane_total", labelnames=("lane",))
        journal.derive(UPDATE_ACCEPTED, by_lane)
        took = registry.histogram("took_seconds", buckets=(1.0,))
        journal.derive(UPDATE_ACCEPTED, took, by="duration")
        plain = registry.counter("plain_total")
        journal.derive(UPDATE_ACCEPTED, plain)
        seen = []
        journal.subscribe(seen.append, kinds=(UPDATE_ACCEPTED,))
        journal.emit(UPDATE_ACCEPTED, serial=1)
        assert registry.value("plain_total") == 1
        assert len(seen) == 1
        journal.emit(UPDATE_ACCEPTED, serial=2, lane="0", duration=0.5)
        assert registry.value("by_lane_total", lane="0") == 1
        assert registry.value("plain_total") == 2
        assert len(seen) == 2

    def test_listener_may_subscribe_during_emit(self):
        # Listeners run after ``_lock`` is released (LX502/LX504): a
        # listener that calls back into subscribe() must not deadlock on
        # the journal's own non-reentrant lock.
        journal = EventJournal()
        seen = []

        def recursive(event):
            journal.subscribe(seen.append)

        journal.subscribe(recursive)
        journal.emit(UPDATE_ACCEPTED, serial=1)
        # The new subscriber was registered mid-emit; the *next* emit
        # reaches it (emit snapshots the listener set under the lock).
        journal.emit(UPDATE_CLAIMED, serial=1)
        assert [e.kind for e in seen] == [UPDATE_CLAIMED]

    def test_concurrent_emits_keep_unique_sequences(self):
        journal = EventJournal(capacity=4096)

        def emitter():
            for _ in range(200):
                journal.emit(UPDATE_ACCEPTED)

        threads = [threading.Thread(target=emitter) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in journal]
        assert len(seqs) == 800
        assert len(set(seqs)) == 800

    def test_jsonl_export(self, tmp_path):
        journal = EventJournal()
        journal.emit(UPDATE_ACCEPTED, serial=1)
        journal.emit(DEVICE_COMMIT, device="pbx", serial=1)
        text = journal.to_jsonl()
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == DEVICE_COMMIT

        path = tmp_path / "events.jsonl"
        assert journal.export_jsonl(path) == 2
        exported = path.read_text().strip().split("\n")
        assert [json.loads(line)["seq"] for line in exported] == [1, 2]

    def test_empty_jsonl_is_empty_string(self):
        assert EventJournal().to_jsonl() == ""


class TestJournalPipelineIntegration:
    """The journal records an update's whole journey through the system."""

    @pytest.fixture
    def system(self):
        from repro.core import MetaComm, MetaCommConfig

        with MetaComm(MetaCommConfig()) as system:
            yield system

    def add_person(self, system, cn="Ann Field", extension="4101"):
        from repro.schemas import PERSON_CLASSES

        system.connection().add(
            f"cn={cn},o=Lucent",
            {
                "objectClass": list(PERSON_CLASSES),
                "cn": cn,
                "sn": cn.split()[-1],
                "definityExtension": extension,
            },
        )

    def test_ldap_add_leaves_a_complete_event_trail(self, system):
        self.add_person(system)
        # The system journals one lexpress.compiled per bound rule at boot,
        # before any update.
        events = [e for e in system.obs.journal if e.kind != "lexpress.compiled"]
        # One event per fact: 3 + one per planned device (PBX, messaging).
        assert [e.kind for e in events] == [
            "update.accepted",
            "update.claimed",
            "device.commit",
            "device.commit",
            "update.done",
        ]
        commit = events[2].attributes
        assert commit["action"] == "add" and commit["conditional"] is False
        # The plan and the supplemental write ride on the closing event.
        done = events[-1].attributes
        assert done["devices"] == [e.attributes["device"] for e in events[2:4]]
        assert done["mode"] == "serial"
        assert done["supplemental"] > 0

    def test_events_carry_the_update_trace_id(self, system):
        self.add_person(system)
        trace = system.last_trace("update")
        accepted = system.obs.journal.last("update.accepted")
        commit = system.obs.journal.last("device.commit")
        assert accepted.trace_id == trace.trace_id
        assert commit.trace_id == trace.trace_id

    def test_ddu_emits_ddu_received(self, system):
        self.add_person(system)
        system.terminal().execute("change station 4101 room 1A-100")
        event = system.obs.journal.last("ddu.received")
        assert event is not None
        assert event.attributes["device"] == system.pbx().name

    def test_device_rejection_emits_failure_and_abort(self, system):
        from repro.devices.base import DeviceError

        self.add_person(system)
        pbx = system.pbx()

        # A DeviceError during apply becomes a FilterError: the sequence
        # aborts per section 4.4 and the journal records both the
        # per-device failure and the abort decision.
        def fail(op, key):
            raise DeviceError("translation table full")

        pbx.fault_injector = fail
        self.add_person(system, cn="Bob Crash", extension="4102")
        pbx.fault_injector = None
        failure = system.obs.journal.last("device.failure")
        assert failure is not None
        assert failure.attributes["device"] == pbx.name
        aborted = system.obs.journal.last("sequence.aborted")
        assert aborted is not None
        assert aborted.attributes["device"] == pbx.name

    def test_unexpected_error_still_emits_device_failure(self, system):
        self.add_person(system)
        pbx = system.pbx()

        def fail(op, key):
            raise RuntimeError("craft interface wedged")

        pbx.fault_injector = fail
        with pytest.raises(RuntimeError):
            self.add_person(system, cn="Cara Crash", extension="4103")
        pbx.fault_injector = None
        failure = system.obs.journal.last("device.failure")
        assert failure is not None
        assert "wedged" in failure.attributes["error"]

    def test_observability_disabled_emits_nothing(self):
        from repro.core import MetaComm, MetaCommConfig

        with MetaComm(MetaCommConfig(observability=False)) as system:
            self.add_person(system)
            assert len(system.obs.journal) == 0
