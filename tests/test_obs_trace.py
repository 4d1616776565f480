"""Unit tests for per-update traces (repro.obs.trace).

A trace is not stored on its own: it is the group of journal events that
share a trace id, and its spans are the stage timings of its closing
``update.done`` plus one span per timed device event.  These tests build
journals by hand and check the read-only views over them.
"""

from repro.obs import EventJournal
from repro.obs.events import (
    DDU_RECEIVED,
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    UPDATE_ACCEPTED,
    UPDATE_DONE,
)
from repro.obs.trace import (
    OBS_TRACE,
    SpanView,
    last_trace,
    new_trace_id,
    traces,
)


def close(journal, trace, name="update", serial=1, duration=0.5, **stages):
    """Emit the closing event of one journey with the given stage timings
    (span names use ``_`` for ``.``)."""
    journal.emit(
        UPDATE_DONE,
        trace=trace,
        name=name,
        serial=serial,
        duration=duration,
        stages={key.replace("_", "."): value for key, value in stages.items()},
    )


class TestSpan:
    def test_to_dict(self):
        span = SpanView("queue.wait", 0.25, {"serial": 3})
        assert span.to_dict() == {
            "name": "queue.wait",
            "duration": 0.25,
            "attributes": {"serial": 3},
        }


class TestTrace:
    def test_span_context_manager_times_block(self):
        """A stage timed into the open trace becomes a span carrying that
        duration once the journey closes."""
        journal = EventJournal()
        close(journal, "trace-a", stage_one=0.125)
        (trace,) = traces(journal.events())
        assert trace.span_names() == ["stage.one"]
        assert trace.spans[0].duration == 0.125
        assert trace.stages == {"stage.one": 0.125}

    def test_span_records_error_attribute(self):
        """A device failure is a timed ``filter.apply`` span with its error."""
        journal = EventJournal()
        journal.emit(
            DEVICE_FAILURE,
            trace="trace-a",
            serial=1,
            device="pbx",
            key="4100",
            error="device refused",
            duration=0.002,
        )
        (span,) = last_trace(journal.events()).find("filter.apply")
        assert span.attributes == {
            "device": "pbx",
            "key": "4100",
            "error": "device refused",
        }
        assert span.duration == 0.002  # timed even on failure

    def test_record_externally_measured_leg(self):
        """Legs timed outside the stage that closes them (the queue wait,
        from the enqueue stamp) ride in the same stage mapping."""
        journal = EventJournal()
        close(journal, "trace-a", queue_wait=0.125, serial=7)
        trace = last_trace(journal.events())
        (span,) = trace.find("queue.wait")
        assert span.duration == 0.125
        assert trace.serial == 7

    def test_finish_is_idempotent(self):
        """A trace is open until its closing event, and reading a finished
        trace again gives the same answer: views only read the journal."""
        journal = EventJournal()
        journal.emit(UPDATE_ACCEPTED, trace="trace-a", serial=1)
        assert not last_trace(journal.events()).finished
        assert last_trace(journal.events()).duration is None
        close(journal, "trace-a", duration=0.25)
        first, again = last_trace(journal.events()), last_trace(journal.events())
        assert first.finished and again.finished
        assert first.duration == again.duration == 0.25

    def test_find_and_span_names(self):
        journal = EventJournal()
        for device, seconds in (("a", 0.1), ("b", 0.2)):
            journal.emit(
                DEVICE_COMMIT,
                trace="trace-a",
                serial=1,
                device=device,
                key="k",
                duration=seconds,
            )
        close(journal, "trace-a", ldap_supplemental=0.3)
        trace = last_trace(journal.events())
        assert trace.span_names() == [
            "ldap.supplemental",
            "filter.apply",
            "filter.apply",
        ]
        assert [s.attributes["device"] for s in trace.find("filter.apply")] == [
            "a",
            "b",
        ]

    def test_to_dict(self):
        journal = EventJournal()
        journal.emit(
            DDU_RECEIVED, trace="trace-d", device="definity", op="modify", key="4100"
        )
        journal.emit(
            UPDATE_DONE,
            trace="trace-d",
            name="ddu",
            device="definity",
            key="4100",
            serial=None,
            duration=0.01,
            stages={"ddu.translate": 0.004},
        )
        document = last_trace(journal.events()).to_dict()
        assert document["trace_id"] == "trace-d"
        assert document["name"] == "ddu"
        assert document["attributes"] == {"device": "definity", "key": "4100"}
        assert document["duration"] == 0.01
        assert [s["name"] for s in document["spans"]] == ["ddu.translate"]


class TestTracer:
    """The trace store is the journal: its ring bounds traces too."""

    def test_ring_buffer_capacity(self):
        journal = EventJournal(capacity=3)
        opened = [new_trace_id() for _ in range(5)]
        for trace in opened:
            close(journal, trace)
        assert [t.trace_id for t in traces(journal.events())] == opened[2:]

    def test_traces_filter_by_name_and_last(self):
        journal = EventJournal()
        close(journal, "trace-u1")
        journal.emit(DDU_RECEIVED, trace="trace-d", device="pbx", key="1")
        close(journal, "trace-u2")
        assert [t.trace_id for t in traces(journal.events(), "update")] == [
            "trace-u1",
            "trace-u2",
        ]
        # An open DDU journey is named from its intake event.
        assert last_trace(journal.events(), "ddu").trace_id == "trace-d"
        assert last_trace(journal.events(), "update").trace_id == "trace-u2"
        assert last_trace(journal.events()).trace_id == "trace-u2"
        assert last_trace(journal.events(), "missing") is None

    def test_disabled_tracer_returns_none(self):
        journal = EventJournal(enabled=False)
        close(journal, new_trace_id())
        assert traces(journal.events()) == []
        assert last_trace(journal.events()) is None

    def test_clear(self):
        journal = EventJournal()
        close(journal, "trace-a")
        journal.clear()
        assert traces(journal.events()) == []

    def test_unique_ids(self):
        assert new_trace_id() != new_trace_id()

    def test_events_without_a_trace_are_not_traces(self):
        journal = EventJournal()
        journal.emit(UPDATE_ACCEPTED, serial=1)
        assert traces(journal.events()) == []


class TestTraceSpanHelper:
    """Joining a trace is tagging events with its id."""

    def test_null_trace_is_noop(self):
        journal = EventJournal()
        journal.emit(DEVICE_COMMIT, trace=None, device="a", duration=0.1)
        assert traces(journal.events()) == []

    def test_active_trace_delegates(self):
        journal = EventJournal()
        journal.emit(
            DEVICE_COMMIT, trace="trace-a", serial=1, device="a", duration=0.1
        )
        trace = last_trace(journal.events())
        assert trace.span_names() == ["filter.apply"]
        assert trace.spans[0].attributes == {"device": "a"}

    def test_session_state_key(self):
        # The contract between LTAP and the UM: one well-known key.
        assert OBS_TRACE == "obs.trace"
