"""The Update Manager's update queue.

Paper section 4.4: "the LDAP filter ... creates a lexpress update
descriptor for the update that is then added to a global queue in the UM.
The main thread of the UM, the coordinator, iterates through the global
update queue" and "The queue maintained by the UM enforces a serialization
order."

:class:`UpdateQueue` is that queue.  Every claim draws the next number
from one global serial counter — the serial *is* the system-wide
serialization order that makes the reapplication technique converge.

Without a routing plan (``coordinator_lanes=1``, the paper's
configuration) the queue has one lane, ``"0"``: items run strictly one at
a time in serial order, whichever thread claimed them.  With a plan, the
queue has N lanes plus one serial lane: items the routing oracle
(:mod:`repro.analysis.routing`) proved commuting drain concurrently on
their lanes, and everything it cannot prove disjoint lands on the serial
lane, which drains under a barrier — a serial item runs only once every
lane has quiesced past its serial, and lane items claimed after it wait
for it to finish.  The single lane is the degenerate case of the same
protocol: nothing is proven commuting, so nothing overtakes.  See
docs/CONCURRENCY.md for the protocol and its correctness argument.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from zlib import crc32

from ..lexpress.descriptor import UpdateDescriptor
from ..obs.events import (
    LANE_BARRIER,
    UPDATE_ACCEPTED,
    UPDATE_CLAIMED,
    UPDATE_DEFERRED,
    UPDATE_REJECTED,
    EventJournal,
)
from ..obs.metrics import MetricsRegistry

#: Label of the fallback lane everything unprovable serializes onto.
SERIAL_LANE = "serial"


class QueueSaturatedError(RuntimeError):
    """A lane is at its depth limit and the admission policy gave up.

    The bottom-up backpressure signal of the event-driven link layer:
    LTAP's admission hook converts it into a typed ``ServerBusy`` LDAP
    result *before* the directory write, so a rejected update leaves no
    trace to lose or compensate."""

    def __init__(self, lane: str, depth: int, limit: int):
        super().__init__(
            f"coordinator lane {lane!r} at depth {depth} (limit {limit})"
        )
        self.lane = lane
        self.depth = depth
        self.limit = limit


@dataclass
class QueuedUpdate:
    """One queue item: a descriptor stamped with its serialization order.

    Every field is fixed at claim except :attr:`waited`, which
    :meth:`UpdateQueue.wait_turn` fills in when the item's turn comes."""

    serial: int
    descriptor: UpdateDescriptor
    #: ``time.perf_counter()`` at claim (0.0 for hand-built items).
    enqueued_at: float = field(default=0.0, compare=False)
    #: Lane label the item was claimed onto.
    lane: str | None = field(default=None, compare=False)
    #: The routing oracle's reason: "partition" or one of the serial
    #: fallbacks (None without a routing plan).
    reason: str | None = field(default=None, compare=False)
    #: Seconds from claim to the item's turn (0.0 until it comes).
    waited: float = field(default=0.0, compare=False)


class UpdateQueue:
    """Lanes over a single global serial counter.

    The routing oracle, when there is one, assigns every claimed
    descriptor a lane key (hashed onto one of ``lanes`` labels) or sends
    it to the serial lane.  Claims are atomic, per-lane order is FIFO by
    serial, and the **barrier protocol** orders the serial lane against
    everything else:

    * a serial item with serial *S* becomes runnable only when it is the
      serial lane's oldest outstanding item **and** no lane holds an
      outstanding item with serial < *S* (all lanes have quiesced past
      its claim point);
    * a lane item with serial *L* becomes runnable only when it is its
      lane's oldest outstanding item **and** no serial-lane item with
      serial < *L* is still outstanding.

    Serials never wait on larger serials, so the protocol is deadlock-free
    by strict descent.  ``claim`` → ``wait_turn`` → (process) → ``finish``
    is the consumer contract for every lane count; each step is safe
    under arbitrary thread interleavings.
    """

    #: Seconds one condition wait may last before its waiter re-checks.
    #: Only a backstop: ``finish`` notifies every waiter it can release.
    POLL = 0.05

    def __init__(
        self,
        plan=None,
        lanes: int = 1,
        registry: MetricsRegistry | None = None,
        journal: EventJournal | None = None,
        depth_limit: int | None = None,
    ) -> None:
        if lanes < 1:
            raise ValueError("an update queue needs at least one lane")
        if plan is None and lanes > 1:
            raise ValueError(
                "more than one lane requires a routing plan "
                "(repro.analysis.build_routing_plan)"
            )
        if depth_limit is not None and depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        self.plan = plan
        self.lanes = lanes
        #: Maximum *outstanding* (claimed, not yet finished) updates per
        #: lane before :meth:`admit` defers or rejects; ``None`` disables
        #: admission control.
        self.depth_limit = depth_limit
        self.labels: tuple[str, ...] = tuple(str(i) for i in range(lanes))
        if plan is not None:
            self.labels += (SERIAL_LANE,)
        # A plain lock: a condition built over a lock-witness proxy of
        # ``_cond`` (see _sleepers) tests ownership with a non-blocking
        # acquire, which a re-entrant lock would pass.
        self._cond = threading.Condition(threading.Lock())
        #: Threads blocked in :meth:`admit` (so ``finish`` can skip the
        #: notify when nobody waits for capacity — the common case).
        self._blocked = 0
        #: serial -> the condition its :meth:`wait_turn` caller sleeps on.
        #: Each shares ``_cond``'s lock, so :meth:`finish` wakes only the
        #: lanes' heads — the only items that can have become runnable.
        self._sleepers: dict[int, threading.Condition] = {}
        self._serials = itertools.count(1)
        self._last_serial = 0
        #: lane label -> serial -> claim stamp, for items claimed but not
        #: yet running (the depth/staleness view).
        self._waiting: dict[str, dict[int, float]] = {
            label: {} for label in self.labels
        }
        #: lane label -> serials claimed but not finished (the barrier's
        #: quiescence view: waiting ∪ running).
        self._outstanding: dict[str, set[int]] = {
            label: set() for label in self.labels
        }
        #: lane label -> highest serial ever claimed onto the lane.
        self._lane_last: dict[str, int] = {label: 0 for label in self.labels}

        #: True while the staleness gauges may read non-zero (set by
        #: :meth:`refresh_staleness`, cleared when the queue drains).
        self._ages_published = False

        # Gauges and histograms are bound to their children once; the
        # enqueue, claim and rejection counts derive from the journal.
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self.journal = journal or EventJournal(registry=registry)
        enqueued = registry.counter(
            "metacomm_queue_enqueued_total",
            "Update descriptors appended to the global queue",
        )
        processed = registry.counter(
            "metacomm_queue_processed_total",
            "Update descriptors removed from the global queue",
        )
        self.journal.derive(UPDATE_ACCEPTED, enqueued)
        self.journal.derive(UPDATE_CLAIMED, processed)
        self._depth = registry.gauge(
            "metacomm_queue_depth",
            "Update descriptors currently waiting in the global queue",
        ).labels()
        self._oldest_age = registry.gauge(
            "metacomm_queue_oldest_age_seconds",
            "How long the oldest unclaimed update has waited "
            "(the max over all lanes; refreshed each audit cycle)",
        ).labels()
        self._wait = registry.histogram(
            "metacomm_queue_wait_seconds",
            "Enqueue-to-dequeue latency of the global queue",
        ).labels()
        # Every series that can move in this configuration, and no other:
        # a single lane's series would repeat the aggregates above.
        self._lane_depth: dict[str, object] = {}
        self._lane_oldest_age: dict[str, object] = {}
        if plan is not None:
            lane_enqueued = registry.counter(
                "metacomm_queue_lane_enqueued_total",
                "Update descriptors routed onto each coordinator lane",
                labelnames=("lane",),
            )
            lane_depth = registry.gauge(
                "metacomm_queue_lane_depth",
                "Update descriptors currently waiting on each lane",
                labelnames=("lane",),
            )
            lane_oldest_age = registry.gauge(
                "metacomm_queue_lane_oldest_age_seconds",
                "How long each lane's oldest unclaimed update has waited",
                labelnames=("lane",),
            )
            self.journal.derive(UPDATE_ACCEPTED, lane_enqueued)
            for label in self.labels:
                lane_enqueued.labels(lane=label)  # scrapes from zero
                self._lane_depth[label] = lane_depth.labels(lane=label)
                self._lane_oldest_age[label] = lane_oldest_age.labels(
                    lane=label
                )
            self._serial_fallback = registry.counter(
                "metacomm_queue_serial_fallback_total",
                "Updates the routing oracle sent to the serial lane, "
                "by reason",
                labelnames=("reason",),
            )
            self._barrier_wait = registry.histogram(
                "metacomm_queue_barrier_seconds",
                "How long serial-lane items waited for all lanes to quiesce",
            )
        if depth_limit is not None:
            admission_deferred = registry.counter(
                "metacomm_queue_admission_deferred_total",
                "Updates that waited at admission for lane capacity",
                labelnames=("lane",),
            )
            admission_rejected = registry.counter(
                "metacomm_queue_admission_rejected_total",
                "Updates rejected at admission because a lane stayed at "
                "its depth limit (surfaced to LTAP clients as ServerBusy)",
                labelnames=("lane",),
            )
            self.journal.derive(UPDATE_REJECTED, admission_rejected)
            self._admission_deferred = {}
            for label in self.labels:
                self._admission_deferred[label] = admission_deferred.labels(
                    lane=label
                )
                admission_rejected.labels(lane=label)  # scrapes from zero

    # -- producing ----------------------------------------------------------

    def _emit(self, kind: str, item: QueuedUpdate, trace, **extra) -> None:
        descriptor = item.descriptor
        op = getattr(descriptor, "op", None)
        self.journal.emit(
            kind,
            trace=trace,
            serial=item.serial,
            op=getattr(op, "value", op),
            key=getattr(descriptor, "key", None),
            lane=item.lane,
            **extra,
        )

    def lane_of(self, lane_key: str | None) -> str:
        """Deterministic lane assignment: same key → same lane, always."""
        if lane_key is None:
            return SERIAL_LANE
        return str(crc32(lane_key.encode("utf-8")) % self.lanes)

    def _route(self, descriptor: UpdateDescriptor, rename: bool):
        """The lane *descriptor* lands on and the oracle's decision (None
        without a routing plan: the single lane takes everything)."""
        if self.plan is None:
            return "0", None
        decision = self.plan.classify(descriptor, rename=rename)
        return self.lane_of(decision.lane_key), decision

    def claim(
        self,
        descriptor: UpdateDescriptor,
        trace=None,
        rename: bool = False,
    ) -> QueuedUpdate:
        """Atomically assign the next global serial and a lane.

        The item is never visible to any other consumer — the claiming
        thread must call :meth:`wait_turn` before processing and
        :meth:`finish` afterwards."""
        label, decision = self._route(descriptor, rename)
        now = time.perf_counter()
        with self._cond:
            serial = next(self._serials)
            item = QueuedUpdate(
                serial,
                descriptor,
                now,
                lane=label,
                reason=decision.reason if decision is not None else None,
            )
            self._last_serial = serial
            self._waiting[label][serial] = now
            self._outstanding[label].add(serial)
            self._lane_last[label] = serial
            self._publish_depth(label)
        if decision is None:
            self._emit(UPDATE_ACCEPTED, item, trace)
            return item
        if decision.serial:
            self._serial_fallback.labels(reason=decision.reason).inc()
        self._emit(UPDATE_ACCEPTED, item, trace, reason=decision.reason)
        return item

    # -- admission control ----------------------------------------------------

    def admit(
        self,
        descriptor: UpdateDescriptor,
        rename: bool = False,
        timeout: float | None = None,
        trace=None,
    ) -> str:
        """Gate one prospective update on its target lane's depth limit.

        Called by LTAP's admission hook *before* the directory write, with
        a descriptor built from the inbound request: the routing oracle
        (or, without one, the single lane) says which lane the update
        would land on, and if that lane already holds ``depth_limit``
        outstanding updates the caller either defers (bounded wait of
        ``timeout`` seconds for capacity) or — when the wait expires, or
        ``timeout`` is ``None``/``0`` — gets :class:`QueueSaturatedError`,
        which the gateway surfaces as a typed ``ServerBusy`` LDAP result.
        Returns ``"admitted"`` or ``"deferred"`` on success.

        Advisory by design: admission and the later :meth:`claim` are two
        critical sections, so concurrent admits can overshoot the limit by
        the number of racing clients — the limit bounds growth, it is not
        an exact semaphore."""
        if self.depth_limit is None:
            return "admitted"
        label, _ = self._route(descriptor, rename)
        deadline = (
            time.perf_counter() + timeout if timeout else None
        )
        status = "admitted"
        depth = 0
        started = time.perf_counter()
        with self._cond:
            while len(self._outstanding[label]) >= self.depth_limit:
                if status == "admitted":
                    status = "deferred"
                    self._admission_deferred[label].inc()
                if deadline is None or time.perf_counter() >= deadline:
                    status = "rejected"
                    depth = len(self._outstanding[label])
                    break
                self._wait_locked()
        waited = time.perf_counter() - started
        # Journal emission stays outside _cond: listener callbacks must
        # never run under the queue's condition (LX502 discipline).
        if status == "rejected":
            self.journal.emit(
                UPDATE_REJECTED,
                trace=trace,
                key=getattr(descriptor, "key", None),
                lane=label,
                depth=depth,
                limit=self.depth_limit,
                waited=round(waited, 6),
            )
            raise QueueSaturatedError(label, depth, self.depth_limit)
        if status == "deferred":
            self.journal.emit(
                UPDATE_DEFERRED,
                trace=trace,
                key=getattr(descriptor, "key", None),
                lane=label,
                waited=round(waited, 6),
            )
        return status

    # -- the barrier protocol ------------------------------------------------

    def _runnable(self, item: QueuedUpdate) -> bool:
        """Caller holds ``_cond``.  See the class docstring for the rules."""
        mine = self._outstanding[item.lane]
        if not mine or min(mine) != item.serial:
            return False
        if self.plan is None:
            return True
        if item.lane == SERIAL_LANE:
            return all(
                not lane or min(lane) > item.serial
                for label, lane in self._outstanding.items()
                if label != SERIAL_LANE
            )
        serial_lane = self._outstanding[SERIAL_LANE]
        return not serial_lane or min(serial_lane) > item.serial

    def wait_turn(
        self,
        item: QueuedUpdate,
        timeout: float | None = None,
        trace=None,
    ) -> bool:
        """Block until *item* may run under the barrier protocol.

        Returns True once the item is runnable (it then counts as claimed
        for metrics/journal purposes, and its :attr:`~QueuedUpdate.waited`
        holds the claim-to-turn wait); False when ``timeout`` elapsed
        first — the caller must still call :meth:`finish` so the lane
        does not wedge on the abandoned serial."""
        with self._cond:
            if not self._runnable(item):
                deadline = (
                    time.perf_counter() + timeout
                    if timeout is not None
                    else None
                )
                sleeper = threading.Condition(self._cond)
                self._sleepers[item.serial] = sleeper
                try:
                    while not self._runnable(item):
                        if (
                            deadline is not None
                            and time.perf_counter() >= deadline
                        ):
                            return False
                        sleeper.wait(timeout=self.POLL)
                finally:
                    del self._sleepers[item.serial]
            self._waiting[item.lane].pop(item.serial, None)
            self._publish_depth(item.lane)
        waited = item.waited = (
            time.perf_counter() - item.enqueued_at if item.enqueued_at else 0.0
        )
        self._wait.observe(waited)
        if item.lane == SERIAL_LANE:
            # The serial item just cleared the barrier: every lane has
            # quiesced past its serial.  Journal it — this is the event a
            # wedged-barrier investigation greps for.
            self._barrier_wait.observe(waited)
            self._emit(LANE_BARRIER, item, trace, waited=round(waited, 6))
        self._emit(UPDATE_CLAIMED, item, trace, waited=round(waited, 6))
        return True

    def finish(self, item: QueuedUpdate) -> None:
        """Mark *item* done; wakes each lane's head and admission waiters.

        Only a lane's oldest outstanding serial can ever be runnable, so
        the head of every lane is the whole set of items this finish can
        have released (a serial-lane finish may release every lane)."""
        woke = False
        with self._cond:
            self._outstanding[item.lane].discard(item.serial)
            if self._waiting[item.lane].pop(item.serial, None) is not None:
                self._publish_depth(item.lane)
            if self._sleepers:
                for serials in self._outstanding.values():
                    if serials:
                        sleeper = self._sleepers.get(min(serials))
                        if sleeper is not None:
                            sleeper.notify()
                            woke = True
            if self._blocked:
                self._cond.notify_all()
        if woke:
            # Yield the GIL to the woken head: otherwise it waits until
            # this thread blocks or the switch interval (5 ms) runs out,
            # and that wait sits on its lane's critical path.
            time.sleep(0)

    def _wait_locked(self) -> None:
        """One bounded condition wait; caller holds ``_cond``."""
        self._blocked += 1
        try:
            self._cond.wait(timeout=self.POLL)
        finally:
            self._blocked -= 1

    def _publish_depth(self, label: str) -> None:
        """Republish the depth of the lane that changed, and the total.
        Caller holds ``_cond``."""
        depth = len(self._waiting[label])
        if self.plan is not None:
            self._lane_depth[label].set(depth)
            depth = sum(len(waiting) for waiting in self._waiting.values())
        self._depth.set(depth)
        if not depth and self._ages_published:
            # Drained: the backlog gauges drop on the transition instead
            # of waiting for the next audit cycle.
            self._ages_published = False
            self._oldest_age.set(0.0)
            for child in self._lane_oldest_age.values():
                child.set(0.0)

    # -- status --------------------------------------------------------------

    def __len__(self) -> int:
        with self._cond:
            return sum(len(w) for w in self._waiting.values())

    def peek_serial(self) -> int | None:
        with self._cond:
            waiting = [min(w) for w in self._waiting.values() if w]
            return min(waiting) if waiting else None

    @property
    def last_serial(self) -> int:
        """The highest serial issued so far (the serialization head)."""
        with self._cond:
            return self._last_serial

    def _lane_age(self, label: str, now: float) -> float:
        """Caller holds ``_cond``."""
        stamps = self._waiting[label].values()
        return (now - min(stamps)) if stamps else 0.0

    def oldest_age(self) -> float:
        """Seconds the oldest unclaimed update has waited, over all lanes."""
        now = time.perf_counter()
        with self._cond:
            return max(self._lane_age(label, now) for label in self.labels)

    def refresh_staleness(self) -> float:
        """Publish per-lane and aggregate (max-lane) oldest-age gauges.

        Age is a function of *now*, so unlike depth it cannot be kept
        current purely on queue transitions — the auditor calls this each
        cycle.  The aggregate lands on ``metacomm_queue_oldest_age_seconds``
        for every lane count, so the shipped ``queue-backlog`` alert rule
        fires identically with or without sharding."""
        now = time.perf_counter()
        with self._cond:
            ages = {
                label: self._lane_age(label, now) for label in self.labels
            }
            self._ages_published = any(ages.values())
        for label, child in self._lane_oldest_age.items():
            child.set(ages[label])
        aggregate = max(ages.values())
        self._oldest_age.set(aggregate)
        return aggregate

    def lane_snapshot(self) -> list[dict]:
        """Per-lane depth / staleness / last-serial (the monitor CLI's
        lane section)."""
        now = time.perf_counter()
        with self._cond:
            return [
                {
                    "lane": label,
                    "depth": len(self._waiting[label]),
                    "outstanding": len(self._outstanding[label]),
                    "limit": self.depth_limit,
                    "oldest_age": self._lane_age(label, now),
                    "last_serial": self._lane_last[label],
                }
                for label in self.labels
            ]
