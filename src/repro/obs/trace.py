"""Per-update traces, read from the event journal.

A *trace* follows one update's journey (section 4.4: LTAP or a device,
the update queue, every device filter, the supplemental LDAP write).  It
is not recorded on its own: it is the group of journal events
(:mod:`repro.obs.events`) that share a trace id.

The journey's owner — the LTAP gateway for a client's write, the Update
Manager's DDU intake for a direct device update — mints the id and puts
it in the session under :data:`OBS_TRACE`, beside a stage-timing dict
under :data:`OBS_STAGES`.  Everything downstream that holds the session
tags its events with the id and times its stage into the dict under the
stage's span name; the owner closes the journey with one ``update.done``
carrying the serial, the total ``duration`` and the ``stages``.  Stage
timings are disjoint, so they sum to at most the total.

:func:`traces` groups events into read-only :class:`TraceView`\\ s whose
spans are the stage timings plus one per timed device event.  The
journal's ``capacity`` bounds traces and events alike.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .events import (
    DDU_RECEIVED,
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    DEVICE_ROLLBACK,
    SAGA_COMPENSATED,
    UPDATE_DONE,
    UPDATE_PLANNED,
    Event,
)

__all__ = [
    "OBS_SERIAL",
    "OBS_STAGES",
    "OBS_TRACE",
    "SpanView",
    "TraceView",
    "last_trace",
    "new_trace_id",
    "traces",
]

#: Session-state key under which the open trace's id travels.
OBS_TRACE = "obs.trace"
#: Session-state key of the open trace's stage timings (span name ->
#: seconds), which its closing ``update.done`` event carries.
OBS_STAGES = "obs.stages"
#: Session-state key of the serial the queue gave the open trace's sequence.
OBS_SERIAL = "obs.serial"

_trace_ids = itertools.count(1)

#: Device events that close a timed leg, and the span each one becomes.
_EVENT_SPANS = {
    DEVICE_COMMIT: "filter.apply",
    DEVICE_FAILURE: "filter.apply",
    DEVICE_ROLLBACK: "filter.rollback",
    SAGA_COMPENSATED: "filter.compensate",
}
#: Closing-event attributes that are not the trace's identity.
_DONE_FIELDS = frozenset({"name", "serial", "duration", "stages"})


def new_trace_id() -> str:
    """A process-unique trace id (``trace-N``)."""
    return f"trace-{next(_trace_ids)}"


class SpanView(NamedTuple):
    """One timed leg of a journey."""

    name: str
    #: Elapsed seconds (``time.perf_counter()`` difference).
    duration: float
    attributes: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class TraceView:
    """One journey, assembled from its retained journal events."""

    def __init__(self, trace_id: str, events: list[Event]):
        self.trace_id = trace_id
        self.events = events
        #: The closing ``update.done`` (None while in flight, or evicted).
        self.done = next(
            (e for e in reversed(events) if e.kind == UPDATE_DONE), None
        )
        if self.done is not None:
            attributes = self.done.attributes
            self.name = attributes["name"]
            self.attributes = {
                k: v for k, v in attributes.items() if k not in _DONE_FIELDS
            }
        else:
            received = [e for e in events if e.kind == DDU_RECEIVED]
            self.name = "ddu" if received else "update"
            self.attributes = dict(received[0].attributes) if received else {}
        #: Wall-clock time of the earliest retained event.
        self.started_at = events[0].ts

    @property
    def finished(self) -> bool:
        return self.done is not None

    @property
    def duration(self) -> float | None:
        return self.done.attributes["duration"] if self.done else None

    @property
    def serial(self) -> int | None:
        return self.done.attributes["serial"] if self.done else None

    @property
    def stages(self) -> dict[str, float]:
        """Span name -> seconds, in the order the stages closed."""
        return dict(self.done.attributes["stages"]) if self.done else {}

    @property
    def spans(self) -> list[SpanView]:
        planned = [e for e in self.events if e.kind == UPDATE_PLANNED]
        mode = {"mode": planned[0].attributes["mode"]} if planned else {}
        spans = [
            SpanView(name, seconds, mode if name == "stage.fanout" else {})
            for name, seconds in self.stages.items()
        ]
        for event in self.events:
            name = _EVENT_SPANS.get(event.kind)
            if name is not None:
                attributes = dict(event.attributes)
                duration = attributes.pop("duration")
                attributes.pop("serial", None)
                spans.append(SpanView(name, duration, attributes))
        return spans

    def span_names(self) -> list[str]:
        return [span.name for span in self.spans]

    def find(self, name: str) -> list[SpanView]:
        return [span for span in self.spans if span.name == name]

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "attributes": dict(self.attributes),
            "started_at": self.started_at,
            "duration": self.duration,
            "spans": [span.to_dict() for span in self.spans],
        }


def traces(events: Iterable[Event], name: str | None = None) -> list[TraceView]:
    """The traces among ``events`` (a journal's, or a JSONL export's),
    oldest first; ``name`` picks ``"update"`` or ``"ddu"`` journeys."""
    grouped: dict[str, list[Event]] = {}
    for event in events:
        if event.trace_id is not None:
            grouped.setdefault(event.trace_id, []).append(event)
    views = [TraceView(trace_id, events) for trace_id, events in grouped.items()]
    if name is not None:
        views = [view for view in views if view.name == name]
    return views


def last_trace(events: Iterable[Event], name: str | None = None) -> TraceView | None:
    matching = traces(events, name)
    return matching[-1] if matching else None
