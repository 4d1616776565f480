"""Event-driven device links: pipelined command streams with batching.

The fan-out stage used to burn one worker thread per device write, each
sleeping through a full management-link round-trip (``Device._link``).
This module replaces that with the link layer the ROADMAP calls the
"fast as hardware allows" refactor:

* each device gets a :class:`DeviceLink` — a FIFO of submitted write
  operations plus a bounded *in-flight window* of flushed batches;
* one :class:`LinkDispatcher` thread drives every link: it coalesces up
  to ``batch`` queued ops into one *pipelined OSSI command stream*, pays
  **one** round-trip for the whole batch (a channel-slot reservation on
  serial craft channels, see :meth:`Device.reserve_channel`), and
  executes the ops when the stream's completion deadline arrives;
* callers get :class:`concurrent.futures.Future` results from
  :meth:`DeviceLink.submit`, so one coordinator lane can keep many
  devices' round-trips in flight at once;
* a full window *and* full submit queue surfaces as :class:`LinkBusy`
  (or a bounded blocking submit), the bottom of the backpressure chain
  that ends in LTAP's ``ServerBusy`` result (docs/DEVICE_LINKS.md).

Ordering: per link the submit queue is FIFO, batches are formed and
executed strictly in queue order, and round-trip deadlines are
monotonic per device — so per-record (indeed per-device) operation
order is exactly submission order, the property the window=1/batch=1
equivalence test pins against the paper-serial path.

Commit notifications raised while a batch executes are *deferred*: the
dispatcher must never run a DDU listener inline (the listener fans back
into the links and would deadlock the event loop), so a dedicated
notifier thread delivers them FIFO after the ops commit.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from ..obs.metrics import LabelCache, MetricsRegistry
from .base import Device, DeviceError, DeviceNotification, link_execution

__all__ = ["LinkBusy", "LinkConfig", "DeviceLink", "LinkDispatcher"]


class LinkBusy(DeviceError):
    """The link's submit queue is full and the caller asked not to wait."""


@dataclass(frozen=True)
class LinkConfig:
    """Tuning knobs for one device link.

    ``window``
        Maximum flushed batches (command streams) in flight at once.
    ``batch``
        Maximum ops coalesced into one command stream.
    ``queue_limit``
        Maximum ops waiting to be flushed; beyond it ``submit`` defers
        (bounded wait) or rejects with :class:`LinkBusy`.
    """

    window: int = 4
    batch: int = 8
    queue_limit: int = 64

    def __post_init__(self) -> None:
        if self.window < 1 or self.batch < 1 or self.queue_limit < 1:
            raise ValueError("window, batch and queue_limit must be >= 1")


@dataclass
class _LinkOp:
    fn: Callable[[], object]
    op: str
    key: str
    future: Future
    submitted: float


@dataclass
class _Batch:
    link: "DeviceLink"
    ops: list[_LinkOp]
    deadline: float
    flushed: float = field(default=0.0)


class DeviceLink:
    """Pipelined command stream for one device.

    All mutable state is guarded by the owning dispatcher's condition —
    the link is a passive record the dispatcher's event loop drives."""

    def __init__(self, device: Device, config: LinkConfig, dispatcher: "LinkDispatcher"):
        self.device = device
        self.name = device.name
        self.config = config
        self._dispatcher = dispatcher
        #: This link's in-flight gauge child, bound once (outside any lock).
        self._inflight_gauge = dispatcher._m_inflight.labels(device=self.name)
        # Guarded by dispatcher._cond:
        self._pending: deque[_LinkOp] = deque()
        self._inflight: deque[_Batch] = deque()
        self._paused = False
        self._batch_hist: dict[int, int] = {}
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "flushes": 0,
            "deferred": 0,
            "rejected": 0,
            "peak_pending": 0,
        }

    # -- submit side (any thread) ------------------------------------------------

    def submit(
        self,
        fn: Callable[[], object],
        *,
        op: str = "apply",
        key: str = "",
        timeout: float | None = None,
    ) -> Future:
        """Queue one operation; returns a Future resolved at flush time.

        Blocks while the submit queue is at ``queue_limit`` (bounded by
        ``timeout`` if given, raising :class:`LinkBusy` on expiry; pass
        ``timeout=0`` for a non-blocking attempt)."""
        dispatcher = self._dispatcher
        entry = _LinkOp(fn, op, key, Future(), time.monotonic())
        deadline = None if timeout is None else entry.submitted + timeout
        waited = rejected = False
        try:
            with dispatcher._cond:
                while True:
                    if dispatcher._stopped:
                        raise DeviceError(f"{self.name}: device link stopped")
                    if len(self._pending) < self.config.queue_limit:
                        break
                    remaining = 0.25
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            self._stats["rejected"] += 1
                            rejected = True
                            raise LinkBusy(
                                f"{self.name}: link queue full "
                                f"({self.config.queue_limit} ops pending)"
                            )
                        remaining = min(remaining, 0.25)
                    if not waited:
                        waited = True
                        self._stats["deferred"] += 1
                    dispatcher._cond.wait(remaining)
                self._pending.append(entry)
                self._stats["submitted"] += 1
                if len(self._pending) > self._stats["peak_pending"]:
                    self._stats["peak_pending"] = len(self._pending)
                dispatcher._cond.notify_all()
        finally:
            # Counted once the condition is released: binding a child by
            # label takes the metric family's lock.
            if waited:
                dispatcher._m_deferred.labels(device=self.name).inc()
            if rejected:
                dispatcher._m_rejected.labels(device=self.name).inc()
        return entry.future

    # -- stall injection -----------------------------------------------------------

    def pause(self) -> None:
        """Stop flushing (simulates a stalled device link)."""
        with self._dispatcher._cond:
            self._paused = True

    def resume(self) -> None:
        with self._dispatcher._cond:
            self._paused = False
            self._dispatcher._cond.notify_all()

    # -- introspection -----------------------------------------------------------

    def saturated(self) -> bool:
        """True when both the in-flight window and the submit queue are full."""
        with self._dispatcher._cond:
            return (
                len(self._inflight) >= self.config.window
                and len(self._pending) >= self.config.queue_limit
            )

    def snapshot(self) -> dict:
        with self._dispatcher._cond:
            pending = len(self._pending)
            inflight = len(self._inflight)
            inflight_ops = sum(len(b.ops) for b in self._inflight)
            stats = dict(self._stats)
            hist = dict(sorted(self._batch_hist.items()))
            paused = self._paused
        return {
            "device": self.name,
            "window": self.config.window,
            "batch": self.config.batch,
            "queue_limit": self.config.queue_limit,
            "pending": pending,
            "inflight": inflight,
            "inflight_ops": inflight_ops,
            "paused": paused,
            "batch_sizes": hist,
            **stats,
        }


class LinkDispatcher:
    """Single event-loop thread driving every registered device link.

    The loop never sleeps through a round-trip: a flush *reserves* the
    device channel (or just stamps ``now + latency``) and records the
    completion time as the batch deadline; the loop then waits on its
    condition until the nearest deadline, so any number of links'
    round-trips overlap on one thread."""

    #: Idle wait between wake-ups when no deadline is nearer (seconds).
    POLL = 0.05

    def __init__(self, metrics: MetricsRegistry | None = None):
        self._cond = threading.Condition()
        self._links: list[DeviceLink] = []
        self._by_name: dict[str, DeviceLink] = {}
        self._stopped = False
        self._started = False
        self._thread: threading.Thread | None = None
        # Deferred commit notifications, delivered FIFO by the notifier
        # thread (guarded by _notify_cond, never held with _cond).
        self._notify_cond = threading.Condition()
        self._notifications: deque[tuple[Device, DeviceNotification]] = deque()
        self._notify_stop = False
        self._notifier: threading.Thread | None = None
        metrics = metrics if metrics is not None else MetricsRegistry()
        # The flush counters and the batch-size histogram, per device;
        # updated right after each link's ``_stats``, outside ``_cond``.
        ops = metrics.counter(
            "metacomm_link_ops_total",
            "Operations completed over device links",
            labelnames=("device", "outcome"),
        )
        self._m_ops_ok = LabelCache(ops, outcome="ok")
        self._m_ops_failed = LabelCache(ops, outcome="error")
        self._m_flushes = LabelCache(
            metrics.counter(
                "metacomm_link_flushes_total",
                "Command-stream flushes (one round-trip each) per device link",
                labelnames=("device",),
            )
        )
        self._m_batch_ops = LabelCache(
            metrics.histogram(
                "metacomm_link_batch_ops",
                "Operations coalesced per flushed command stream",
                labelnames=("device",),
                buckets=(1, 2, 4, 8, 16, 32, 64),
            )
        )
        self._m_inflight = metrics.gauge(
            "metacomm_link_inflight_batches",
            "Command streams currently in flight per device link",
            labelnames=("device",),
        )
        self._m_deferred = metrics.counter(
            "metacomm_link_submit_deferred_total",
            "Submits that had to wait for link-queue space",
            labelnames=("device",),
        )
        self._m_rejected = metrics.counter(
            "metacomm_link_submit_rejected_total",
            "Submits rejected because the link queue stayed full",
            labelnames=("device",),
        )

    # -- registration ------------------------------------------------------------

    def register(self, device: Device, config: LinkConfig | None = None) -> DeviceLink:
        link = DeviceLink(device, config or LinkConfig(), self)
        with self._cond:
            if self._stopped:
                raise DeviceError("link dispatcher stopped")
            self._links.append(link)
            self._by_name[link.name] = link
        device.attach_link(link)
        return link

    def link(self, name: str) -> DeviceLink:
        with self._cond:
            return self._by_name[name]

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._started or self._stopped:
                return
            self._started = True
        self._thread = threading.Thread(
            target=self._run, name="metacomm-links", daemon=True
        )
        self._notifier = threading.Thread(
            target=self._run_notifier, name="metacomm-link-notify", daemon=True
        )
        self._thread.start()
        self._notifier.start()

    def stop(self) -> None:
        """Stop both threads; fails any unflushed futures so no waiter hangs.

        The orphans fail *before* the notifier is joined: a DDU listener
        running on the notifier may be waiting on one of their futures
        (its fan-out submitted into a link), and only failing them lets
        it return.  Submits are refused from ``_stopped`` on, so no new
        orphan can appear after the sweep."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        orphans: list[_LinkOp] = []
        with self._cond:
            for link in self._links:
                for batch in link._inflight:
                    orphans.extend(batch.ops)
                link._inflight.clear()
                orphans.extend(link._pending)
                link._pending.clear()
        for op in orphans:
            op.future.set_exception(DeviceError("device link stopped"))
        with self._notify_cond:
            self._notify_stop = True
            self._notify_cond.notify_all()
        if self._notifier is not None:
            self._notifier.join()
            self._notifier = None

    # -- event loop --------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
                now = time.monotonic()
                ready, timeout = self._collect_locked(now)
                if not ready:
                    self._cond.wait(timeout)
                    continue
            for batch in ready:
                self._execute(batch)

    def _collect_locked(self, now: float) -> tuple[list[_Batch], float]:
        """Pop due batches and form new ones; caller holds ``_cond``.

        Returns the batches to execute and, when none are due, how long
        to wait until the nearest deadline."""
        ready: list[_Batch] = []
        next_deadline: float | None = None
        freed = False
        for link in self._links:
            # Complete due command streams strictly FIFO per link.
            while link._inflight and link._inflight[0].deadline <= now:
                ready.append(link._inflight.popleft())
                freed = True
            # Coalesce queued ops into new streams while the window has room.
            while (
                link._pending
                and not link._paused
                and len(link._inflight) < link.config.window
            ):
                ops = [
                    link._pending.popleft()
                    for _ in range(min(link.config.batch, len(link._pending)))
                ]
                freed = True
                device = link.device
                latency = device.link_latency
                if latency <= 0:
                    deadline = now
                elif device.link_serial:
                    # One pipelined round-trip for the whole stream.
                    deadline = device.reserve_channel(latency)
                else:
                    deadline = now + latency
                batch = _Batch(link, ops, deadline, flushed=now)
                if deadline <= now:
                    ready.append(batch)
                else:
                    link._inflight.append(batch)
            if link._inflight:
                head = link._inflight[0].deadline
                if next_deadline is None or head < next_deadline:
                    next_deadline = head
            link._inflight_gauge.set(len(link._inflight))
        if freed:
            # Queue space and window slots opened up — wake submitters.
            self._cond.notify_all()
        if next_deadline is None:
            return ready, self.POLL
        return ready, max(0.0, min(self.POLL, next_deadline - now))

    def _execute(self, batch: _Batch) -> None:
        """Run one flushed command stream's ops (dispatcher thread, no lock)."""
        link = batch.link
        device = link.device
        sink: list[DeviceNotification] = []
        results: list[tuple[_LinkOp, object, BaseException | None]] = []
        with link_execution(sink):
            for op in batch.ops:
                try:
                    results.append((op, op.fn(), None))
                except BaseException as exc:
                    results.append((op, None, exc))
        done = time.monotonic()
        if sink:
            with self._notify_cond:
                self._notifications.extend((device, n) for n in sink)
                self._notify_cond.notify_all()
        size = len(batch.ops)
        fail_count = sum(exc is not None for _, _, exc in results)
        ok_count = size - fail_count
        # Counted before any future resolves, so a submitter that wakes
        # on its result already sees its flush in the stats and metrics.
        # The metric children are updated after ``_cond`` is released:
        # the first flush of a device binds them, which takes the metric
        # family's lock.
        name = link.name
        with self._cond:
            link._stats["completed"] += ok_count
            link._stats["failed"] += fail_count
            link._stats["flushes"] += 1
            link._batch_hist[size] = link._batch_hist.get(size, 0) + 1
        self._m_flushes[name].inc()
        self._m_batch_ops[name].observe(size)
        if ok_count:
            self._m_ops_ok[name].inc(ok_count)
        if fail_count:
            self._m_ops_failed[name].inc(fail_count)
        for op, result, exc in results:
            elapsed = done - op.submitted
            if exc is None:
                device.observe_op(op.op, op.key, elapsed, True)
                op.future.set_result(result)
            else:
                device.observe_op(op.op, op.key, elapsed, False)
                op.future.set_exception(exc)

    # -- notifier thread ----------------------------------------------------------

    def _run_notifier(self) -> None:
        while True:
            with self._notify_cond:
                while not self._notifications:
                    if self._notify_stop:
                        return
                    self._notify_cond.wait(self.POLL)
                device, notification = self._notifications.popleft()
            # Delivered outside both conditions: a DDU listener may fan
            # back into the links (submit) or the LTAP gateway.
            try:
                device._notify(notification)
            except DeviceError:
                with self._cond:
                    stopping = self._stopped
                if not stopping:
                    raise
                # stop() failed the link futures this DDU's fan-out was
                # waiting on: the shutdown cut it short, not a fault.

    # -- introspection -----------------------------------------------------------

    def snapshot(self) -> list[dict]:
        with self._cond:
            links = list(self._links)
        return [link.snapshot() for link in links]
