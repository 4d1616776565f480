"""The structured event journal of the MetaComm health plane.

Metrics (:mod:`repro.obs.metrics`) answer *how much*; the journal
answers *what happened, in order, and how long it took*.  It is an
append-only, bounded, thread-safe stream of typed lifecycle events
covering an update's whole journey (accepted into the update queue,
claimed by the coordinator, committed or failed per device, rolled back
or compensated, done) plus the health plane's own observations (health
state transitions, audit mismatches, alert raises/clears, sync
progress).

Each event of an update's journey carries its trace id.  The closing
``update.done`` carries what the journey's stages found: their timings,
the planned ``devices``, the fan-out ``mode`` and the supplemental
write's attribute count.  So a plain update journals ``3 + N`` events
for ``N`` planned devices: ``update.accepted``, ``update.claimed``, one
``device.commit`` or ``device.failure`` per device, and ``update.done``.
The journal is the trace store (:mod:`repro.obs.trace` reads traces
from it).  It is a bounded ring (oldest events drop past ``capacity`` —
counted, never silent), exported as JSONL with
``python -m repro events --json``.

Every lifecycle fact is emitted exactly once, here.  Counters that count
one kind of event are *derived* from the journal (:meth:`EventJournal.derive`),
the stage histogram and the supplemental-write counter are derived from
``update.done``, and the health board's outcome feed subscribes to the
device events, so the journal, the metrics and the health board cannot
drift apart (docs/OBSERVABILITY.md lists the derived metrics).  A device
link's flushes are transport detail, not lifecycle facts: the link
dispatcher counts them in its own metrics and journals nothing.

Journals follow the registry convention: created *disabled* they turn
``emit`` into a cheap no-op, which is what the health-plane overhead
benchmark compares against.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Callable, Iterable, Iterator, Mapping

from .metrics import MetricsRegistry

__all__ = [
    "Event",
    "EventJournal",
    "EVENT_KINDS",
    # event kinds
    "UPDATE_ACCEPTED",
    "UPDATE_CLAIMED",
    "UPDATE_DEFERRED",
    "UPDATE_REJECTED",
    "LANE_BARRIER",
    "SEQUENCE_ABORTED",
    "DEVICE_COMMIT",
    "DEVICE_FAILURE",
    "DEVICE_ROLLBACK",
    "SAGA_COMPENSATED",
    "UPDATE_DONE",
    "DDU_RECEIVED",
    "SYNC_PROGRESS",
    "HEALTH_TRANSITION",
    "AUDIT_CYCLE",
    "AUDIT_MISMATCH",
    "ALERT_RAISED",
    "ALERT_CLEARED",
    "LEXPRESS_COMPILED",
    "WITNESS_VIOLATION",
]

# -- event kinds (the journal schema; see docs/OBSERVABILITY.md) ------------

#: A descriptor entered the global update queue (carries ``serial``).
UPDATE_ACCEPTED = "update.accepted"
#: The coordinator took the descriptor for processing, ``waited`` seconds
#: after it was enqueued.  Under a sharded queue the event carries the lane
#: label the routing oracle assigned.
UPDATE_CLAIMED = "update.claimed"
#: Admission control made a prospective update wait for lane capacity
#: before LTAP accepted it (carries ``lane`` and the ``waited`` seconds).
UPDATE_DEFERRED = "update.deferred"
#: Admission control turned a prospective update away — the lane stayed
#: at its depth limit and LTAP answered ServerBusy.  Emitted *before*
#: any directory write, so a rejected update leaves no partial state.
UPDATE_REJECTED = "update.rejected"
#: A serial-lane item cleared the quiescence barrier: every concurrent
#: lane drained past its serial (docs/CONCURRENCY.md).
LANE_BARRIER = "queue.barrier"
#: A repository rejection aborted the remaining sequence.
SEQUENCE_ABORTED = "sequence.aborted"
#: The device committed its planned update (carries the update's
#: ``action``, whether it was a ``conditional`` reapplication, and the
#: apply ``duration``).
DEVICE_COMMIT = "device.commit"
#: The device rejected (or the link dropped) its planned update: a
#: commit's attributes plus the ``error``.
DEVICE_FAILURE = "device.failure"
#: Links mode undid a commit past the abort point (timed).
DEVICE_ROLLBACK = "device.rollback"
#: Saga compensation undid an already-applied device update (timed).
SAGA_COMPENSATED = "saga.compensated"
#: A journey closed, emitted once per trace by its owner: carries ``name``
#: (update/ddu), ``op``/``dn`` or ``device``/``key``, ``serial`` (None if
#: no sequence ran), the total ``duration`` and ``stages`` (span name ->
#: seconds; disjoint legs, in the order they closed).  A journey that ran
#: a sequence adds its planned ``devices`` and fan-out ``mode`` (``serial``
#: or ``links``); one whose section-5.5 supplemental LDAP write happened
#: adds ``supplemental``, the count of attributes written back.
UPDATE_DONE = "update.done"
#: A direct device update arrived from a device filter.
DDU_RECEIVED = "ddu.received"
#: Progress of a synchronization run (start / batch / end phases).
SYNC_PROGRESS = "sync.progress"
#: A device's derived health state changed (healthy/degraded/unreachable).
HEALTH_TRANSITION = "health.transition"
#: The consistency auditor finished one sampling cycle.
AUDIT_CYCLE = "audit.cycle"
#: The auditor found device/directory disagreements in a slice.
AUDIT_MISMATCH = "audit.mismatch"
#: An alert rule's condition was sustained long enough to fire.
ALERT_RAISED = "alert.raised"
#: A previously firing alert's condition went away.
ALERT_CLEARED = "alert.cleared"
#: A lexpress rule or partition was lowered to a Python closure (or
#: rejected by the verifier gate) — emitted at boot, once per bound code
#: object, carrying ``status`` (compiled/rejected), ``seconds`` and the
#: code fingerprint.
LEXPRESS_COMPILED = "lexpress.compiled"
#: The runtime lock witness observed an acquisition order that reverses
#: an already-recorded (or statically derived) pair — carries both lock
#: names and both acquisition stacks (docs/CONCURRENCY.md).
WITNESS_VIOLATION = "witness.violation"

#: Every kind the shipped instrumentation emits, for validation/docs.
EVENT_KINDS = (
    UPDATE_ACCEPTED,
    UPDATE_CLAIMED,
    UPDATE_DEFERRED,
    UPDATE_REJECTED,
    LANE_BARRIER,
    SEQUENCE_ABORTED,
    DEVICE_COMMIT,
    DEVICE_FAILURE,
    DEVICE_ROLLBACK,
    SAGA_COMPENSATED,
    UPDATE_DONE,
    DDU_RECEIVED,
    SYNC_PROGRESS,
    HEALTH_TRANSITION,
    AUDIT_CYCLE,
    AUDIT_MISMATCH,
    ALERT_RAISED,
    ALERT_CLEARED,
    LEXPRESS_COMPILED,
    WITNESS_VIOLATION,
)


class Event:
    """One journal line: a typed fact with a timestamp and a trace link.

    A plain slotted class rather than a dataclass: one Event is built per
    ``emit`` on the update hot path, and slot assignment is measurably
    cheaper than dataclass construction there.
    """

    __slots__ = ("seq", "ts", "kind", "trace_id", "attributes")

    def __init__(
        self,
        seq: int,
        ts: float,
        kind: str,
        trace_id: str | None = None,
        attributes: Mapping[str, object] | None = None,
    ):
        self.seq = seq
        #: Wall-clock time of the event (``time.time()`` epoch seconds).
        self.ts = ts
        self.kind = kind
        #: The trace (update journey) this event belongs to, if any.
        self.trace_id = trace_id
        self.attributes = attributes if attributes is not None else {}

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "attributes": dict(self.attributes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    def __repr__(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in self.attributes.items())
        return f"Event(#{self.seq} {self.kind} {attrs})".rstrip()


#: Callback invoked (outside the journal lock) for every emitted event.
EventListener = Callable[[Event], None]


class _Route:
    """One kind's handler table entry: its events-total child (bound on
    first emit) and the handlers subscribed to that kind alone."""

    counter = None
    handlers: tuple[EventListener, ...] = ()


class EventJournal:
    """Append-only bounded ring of :class:`Event`\\ s, safe across threads.

    ``emit`` is the single producer entry point; client threads, the link
    dispatcher and the auditor all call it concurrently.  Readers
    (``events``, ``tail``, iteration) get consistent snapshots.
    Subscribed listeners receive each event after it is stored — the
    ``--follow`` CLI and the test harness use this; listener exceptions
    are swallowed so a broken consumer can never damage the pipeline.
    Handlers subscribed to particular kinds — derived counters, the
    health board's outcome feed — run after the all-kinds listeners.
    """

    def __init__(
        self,
        capacity: int = 1024,
        enabled: bool = True,
        registry: MetricsRegistry | None = None,
    ):
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        #: Immutable snapshot, replaced wholesale on (un)subscribe, so
        #: ``emit`` can iterate it without a lock or a copy.
        self._listeners: tuple[EventListener, ...] = ()
        #: kind -> its route; read and extended under ``_lock``.
        self._routes: dict[str, _Route] = {}
        registry = registry if registry is not None else MetricsRegistry()
        self._emitted = registry.counter(
            "metacomm_journal_events_total",
            "Lifecycle events appended to the event journal",
            labelnames=("kind",),
        )
        self._dropped = registry.counter(
            "metacomm_journal_dropped_total",
            "Journal events evicted from the bounded ring",
        )

    # -- producing ---------------------------------------------------------

    def emit(self, kind: str, trace=None, **attributes) -> Event | None:
        """Append one event; returns it (``None`` when disabled).

        ``trace`` is a trace id string (``session.state[OBS_TRACE]``), an
        object with a ``trace_id`` (a :class:`~repro.obs.trace.TraceView`),
        or ``None``.
        """
        if not self.enabled:
            return None
        if trace is not None and not isinstance(trace, str):
            trace = trace.trace_id
        with self._lock:
            dropping = len(self._events) >= self.capacity
            event = Event(next(self._seq), time.time(), kind, trace, attributes)
            self._events.append(event)
            # Snapshot inside the critical section: subscribe/unsubscribe
            # swap these tuples under this lock, so the snapshot is the
            # exact handler set that existed when the event entered the
            # journal — and delivery below happens with the lock released.
            route = self._routes.get(kind)
            if route is None:
                route = self._routes[kind] = _Route()
            handlers = self._listeners + route.handlers
        counter = route.counter
        if counter is None:
            # Benign race: two threads may both bind the child; the
            # registry dedupes by label key, so both get the same one.
            counter = route.counter = self._emitted.labels(kind=kind)
        counter.inc()
        if dropping:
            self._dropped.inc()
        for handler in handlers:
            try:
                handler(event)
            except Exception:
                pass  # a broken consumer must never damage the pipeline
        return event

    # -- subscriptions -----------------------------------------------------

    def subscribe(
        self, listener: EventListener, kinds: Iterable[str] | None = None
    ) -> EventListener:
        """Deliver every event to ``listener`` — or, with ``kinds``, only
        events of those kinds, after the all-kinds listeners."""
        with self._lock:
            if kinds is None:
                self._listeners = self._listeners + (listener,)
            for kind in kinds or ():
                route = self._routes.setdefault(kind, _Route())
                route.handlers = route.handlers + (listener,)
        return listener

    def unsubscribe(self, listener: EventListener) -> None:
        with self._lock:
            # Equality, not identity: bound methods (journal.unsubscribe
            # (seen.append)) are fresh objects on every attribute access.
            self._listeners = tuple(
                l for l in self._listeners if l != listener
            )
            for route in self._routes.values():
                route.handlers = tuple(
                    h for h in route.handlers if h != listener
                )

    def derive(self, kind: str, metric, by: str | None = None, **labels) -> None:
        """Derive ``metric`` from ``kind``: per event a counter adds one, or
        its ``by`` attribute, and a histogram observes ``by`` (zeros are
        skipped).  Labels not fixed by ``labels`` take the value of the
        event attribute of the same name."""
        names = tuple(name for name in metric.labelnames if name not in labels)
        record = "observe" if metric.kind == "histogram" else "inc"
        #: label values -> bound record method, so an event pays no
        #: ``.labels()`` lookup.
        children: dict[tuple, Callable[[float], None]] = {}

        def handler(event: Event) -> None:
            attributes = event.attributes
            amount = attributes[by] if by is not None else 1
            if not amount:
                return
            key = tuple([attributes[name] for name in names])
            child = children.get(key)
            if child is None:
                # Benign race: the registry dedupes by label key.
                child = getattr(
                    metric.labels(**labels, **dict(zip(names, key))), record
                )
                children[key] = child
            child(amount)

        self.subscribe(handler, kinds=(kind,))

    # -- reading -----------------------------------------------------------

    def events(
        self,
        kind: str | None = None,
        since: int | None = None,
    ) -> list[Event]:
        """Snapshot of retained events, optionally filtered by ``kind``
        and/or to sequence numbers strictly greater than ``since``."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        if since is not None:
            events = [e for e in events if e.seq > since]
        return events

    def tail(self, n: int = 10) -> list[Event]:
        with self._lock:
            events = list(self._events)
        return events[-n:] if n > 0 else []

    def last(self, kind: str | None = None) -> Event | None:
        matching = self.events(kind)
        return matching[-1] if matching else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __bool__(self) -> bool:
        return True  # even when empty: ``journal or EventJournal()``

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """The retained stream as JSON Lines (one event per line)."""
        lines = [event.to_json() for event in self.events()]
        return "\n".join(lines) + ("\n" if lines else "")

    def export_jsonl(self, path) -> int:
        """Write the retained stream to ``path``; returns the event count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(event.to_json())
                handle.write("\n")
        return len(events)
