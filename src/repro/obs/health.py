"""Device-link health telemetry.

The paper's devices are reached over serial craft interfaces and slow
management links — exactly the links that flap, degrade and silently
stall in production.  This module derives a per-device **health state**
from what the pipeline already observes on every fan-out:

* a windowed reservoir of link latencies (rolling p50/p95/p99);
* a rolling success/error window (error rate over the last N outcomes);
* the consecutive-failure streak;
* the last update serial the device applied (for replication-lag gauges).

Two feeds converge here.  The **outcome feed** comes from the event
journal: the board subscribes to the fan-out stage's ``device.commit``
and ``device.failure`` events (:meth:`HealthBoard.record_outcome`) — did
this device accept its planned update, and how long did the apply take?
It owns the error window, the streak, and therefore the derived state.  The
**link feed** comes from :mod:`repro.devices.base` via each device's
``op_observer`` hook (:meth:`HealthBoard.link_observer`): the raw
wall-clock of every add/modify/delete at the device, including direct
device updates and sync pushes that never cross the fan-out stage.  It
owns the latency reservoir.  Keeping the feeds separate means a single
real-world failure is never double-counted into the streak.

States (exported as ``metacomm_device_health``, 0/1/2):

* ``healthy`` — error rate and streak below the policy thresholds;
* ``degraded`` — rolling error rate above ``degraded_error_rate`` (or
  p95 above ``degraded_p95`` when configured);
* ``unreachable`` — ``unreachable_streak`` consecutive failures.

State transitions are emitted into the same journal
(``health.transition``) so the record of a device going dark — and
coming back — is auditable after the fact.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .events import DEVICE_COMMIT, DEVICE_FAILURE, HEALTH_TRANSITION, EventJournal
from .metrics import MetricsRegistry

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "UNREACHABLE",
    "STATE_CODES",
    "DeviceHealth",
    "HealthBoard",
    "HealthPolicy",
    "LatencyReservoir",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
UNREACHABLE = "unreachable"

#: Numeric encoding used by the ``metacomm_device_health`` gauge (and
#: therefore by alert rules: ``metacomm_device_health >= 1``).
STATE_CODES = {HEALTHY: 0, DEGRADED: 1, UNREACHABLE: 2}


class LatencyReservoir:
    """A fixed-size window of the most recent latency samples.

    Percentiles are computed over the window with nearest-rank
    interpolation — exact for the window, O(n log n) on query, O(1) on
    observe, which is the right trade for a hot observe path and a
    low-rate query path (the auditor refreshing gauges).  It takes no
    lock: its owner guards it (:class:`DeviceHealth` under its own lock).
    """

    def __init__(self, size: int = 128):
        if size < 1:
            raise ValueError("reservoir size must be >= 1")
        self.size = size
        self._samples: deque[float] = deque(maxlen=size)

    def observe(self, value: float) -> None:
        self._samples.append(float(value))

    def percentile(self, p: float) -> float:
        """The p-th percentile (0..100) of the window; 0.0 when empty."""
        return _nearest_rank(sorted(self._samples), p)

    def quantiles(self) -> dict[str, float]:
        """The dashboard trio: p50/p95/p99 in one sorted pass."""
        samples = sorted(self._samples)
        return {f"p{p}": _nearest_rank(samples, p) for p in (50, 95, 99)}

    def __len__(self) -> int:
        return len(self._samples)


def _nearest_rank(samples: list[float], p: float) -> float:
    """The interpolated p-th percentile of sorted ``samples`` (0.0 if none)."""
    if not samples:
        return 0.0
    if p <= 0:
        return samples[0]
    if p >= 100:
        return samples[-1]
    rank = (p / 100.0) * (len(samples) - 1)
    low = int(rank)
    high = min(low + 1, len(samples) - 1)
    weight = rank - low
    return samples[low] * (1.0 - weight) + samples[high] * weight


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds that derive a state from the rolling observations."""

    #: Outcomes considered for the rolling error rate.
    window: int = 64
    #: Latency samples retained for percentile queries.
    reservoir_size: int = 128
    #: Error rate (0..1) over the window beyond which a device that is
    #: still answering counts as degraded.
    degraded_error_rate: float = 0.25
    #: Consecutive failures beyond which the device counts as unreachable.
    unreachable_streak: int = 3
    #: Optional p95 latency bound (seconds); ``None`` leaves latency out
    #: of the health judgement (simulated links are configured, not sick).
    degraded_p95: float | None = None


class DeviceHealth:
    """Rolling health facts for one device link, all guarded by one lock
    (the latency reservoir too, which has none of its own), so each feed
    takes it once."""

    def __init__(self, name: str, policy: HealthPolicy | None = None):
        self.name = name
        self.policy = policy if policy is not None else HealthPolicy()
        self._lock = threading.Lock()
        self.reservoir = LatencyReservoir(self.policy.reservoir_size)
        self._window: deque[bool] = deque(maxlen=self.policy.window)  # True = success
        self._window_failures = 0
        #: The state the last outcome left, for transition detection.
        self._state = HEALTHY
        self.streak = 0  # consecutive failures
        self.successes = 0
        self.failures = 0
        self.link_ops = 0
        self.link_errors = 0
        self.last_success_at: float | None = None
        self.last_failure_at: float | None = None
        #: Highest global-queue serial this device has applied, and when.
        self.last_applied_serial = 0
        self.last_applied_at: float | None = None

    # -- feeds -------------------------------------------------------------

    def record_outcome(
        self, seconds: float, ok: bool, serial: int = 0
    ) -> tuple[int, str, str]:
        """One fan-out outcome: the device accepted/rejected its update,
        and a commit's ``serial``.  Returns ``(streak, previous, state)``:
        the failure streak and the derived state before and after."""
        now = time.time()
        window = self._window
        with self._lock:
            if window and len(window) == window.maxlen and not window[0]:
                self._window_failures -= 1  # the append evicts a failure
            window.append(ok)
            if ok:
                self.successes += 1
                self.streak = 0
                self.last_success_at = now
                if serial > self.last_applied_serial:
                    self.last_applied_serial = serial
                    self.last_applied_at = now
            else:
                self._window_failures += 1
                self.failures += 1
                self.streak += 1
                self.last_failure_at = now
            previous = self._state
            state = self._state = self._state_locked()
            return self.streak, previous, state

    def record_links(self, samples: Iterable[tuple[float, bool]]) -> None:
        """Raw device operations (the link feed), as ``(seconds, ok)``
        pairs: one blocking op, or every op of one link flush."""
        with self._lock:
            observe = self.reservoir.observe
            for seconds, ok in samples:
                observe(seconds)
                self.link_ops += 1
                if not ok:
                    self.link_errors += 1

    # -- derived -----------------------------------------------------------

    @property
    def error_rate(self) -> float:
        with self._lock:
            if not self._window:
                return 0.0
            return self._window_failures / len(self._window)

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def latency(self) -> dict[str, float]:
        """The reservoir's p50/p95/p99, read under the device's lock."""
        with self._lock:
            return self.reservoir.quantiles()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "device": self.name,
                "state": self._state_locked(),
                "successes": self.successes,
                "failures": self.failures,
                "streak": self.streak,
                "error_rate": (
                    self._window_failures / len(self._window)
                    if self._window
                    else 0.0
                ),
                "link_ops": self.link_ops,
                "link_errors": self.link_errors,
                "latency": self.reservoir.quantiles(),
                "last_applied_serial": self.last_applied_serial,
                "last_success_at": self.last_success_at,
                "last_failure_at": self.last_failure_at,
            }

    def _state_locked(self) -> str:
        """The derived state; caller holds ``_lock``."""
        if self.streak >= self.policy.unreachable_streak:
            return UNREACHABLE
        if (
            self._window
            and self._window_failures / len(self._window)
            > self.policy.degraded_error_rate
        ):
            return DEGRADED
        if (
            self.policy.degraded_p95 is not None
            and self.reservoir.percentile(95) > self.policy.degraded_p95
        ):
            return DEGRADED
        return HEALTHY

    def __repr__(self) -> str:
        return f"DeviceHealth({self.name!r}, {self.state})"


class HealthBoard:
    """All device links' health, fed by the journal and the devices.

    The board is the single writer of the ``metacomm_device_*`` metric
    families; it also emits ``health.transition`` journal events whenever
    an outcome flips a device's derived state.  Without a ``registry`` or
    a ``journal`` it uses private ones.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        journal: EventJournal | None = None,
        policy: HealthPolicy | None = None,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.policy = policy if policy is not None else HealthPolicy()
        registry = registry if registry is not None else MetricsRegistry()
        self.journal = journal or EventJournal(registry=registry)
        self.journal.subscribe(
            self._on_outcome, kinds=(DEVICE_COMMIT, DEVICE_FAILURE)
        )
        self._devices: dict[str, DeviceHealth] = {}
        self._lock = threading.Lock()
        #: name -> its DeviceHealth, for the feeds: filled from
        #: :meth:`device` on first use and never guarded, so a feed takes
        #: no board lock (a stale miss just asks :meth:`device` again).
        self._health: dict[str, DeviceHealth] = {}
        #: name -> (health, ok counter, error counter, streak gauge, state
        #: gauge) children, resolved once per device — ``.labels()`` key
        #: building is measurable on the per-outcome hot path.
        self._hot_children: dict[str, tuple] = {}
        #: name -> the children :meth:`refresh_gauges` sets, likewise.
        self._gauge_children: dict[str, tuple] = {}
        self._state_gauge = registry.gauge(
            "metacomm_device_health",
            "Derived device-link health (0=healthy 1=degraded 2=unreachable)",
            labelnames=("device",),
        )
        self._attempts = registry.counter(
            "metacomm_device_attempts_total",
            "Fan-out apply outcomes per device link",
            labelnames=("device", "outcome"),
        )
        self._streak_gauge = registry.gauge(
            "metacomm_device_consecutive_failures",
            "Current consecutive-failure streak of a device link",
            labelnames=("device",),
        )
        self._error_rate_gauge = registry.gauge(
            "metacomm_device_error_rate",
            "Rolling error rate of a device link over the health window",
            labelnames=("device",),
        )
        self._latency_gauge = registry.gauge(
            "metacomm_device_link_latency_seconds",
            "Rolling latency percentile of a device link "
            "(refreshed each audit cycle)",
            labelnames=("device", "quantile"),
        )
        self._lag_gauge = registry.gauge(
            "metacomm_device_last_applied_lag",
            "Update serials between the global queue head and the "
            "last serial this device applied",
            labelnames=("device",),
        )

    # -- device registry ---------------------------------------------------

    def device(self, name: str) -> DeviceHealth:
        with self._lock:
            health = self._devices.get(name)
            if health is None:
                health = self._devices[name] = DeviceHealth(name, self.policy)
            return health

    def devices(self) -> list[DeviceHealth]:
        with self._lock:
            return list(self._devices.values())

    def states(self) -> dict[str, str]:
        return {h.name: h.state for h in self.devices()}

    # -- feeds -------------------------------------------------------------

    def _device(self, name: str) -> DeviceHealth:
        health = self._health.get(name)
        if health is None:
            health = self._health[name] = self.device(name)
        return health

    def _hot(self, name: str) -> tuple:
        children = self._hot_children.get(name)
        if children is None:
            # Benign race: both threads resolve the same registry children.
            children = (
                self._device(name),
                self._attempts.labels(device=name, outcome="ok"),
                self._attempts.labels(device=name, outcome="error"),
                self._streak_gauge.labels(device=name),
                self._state_gauge.labels(device=name),
            )
            self._hot_children[name] = children
        return children

    def _on_outcome(self, event) -> None:
        """The outcome feed: one ``device.commit``/``device.failure``."""
        attributes = event.attributes
        ok = event.kind == DEVICE_COMMIT
        self.record_outcome(
            attributes["device"],
            attributes["duration"],
            ok,
            (attributes["serial"] or 0) if ok else 0,
        )

    def record_outcome(
        self, name: str, seconds: float, ok: bool, serial: int = 0
    ) -> None:
        """One per-device apply outcome (and a commit's serial): one
        :class:`DeviceHealth` call, so one lock, then the metrics and a
        ``health.transition`` if the state flipped."""
        if not self.enabled:
            return
        health, ok_child, error_child, streak_child, state_child = self._hot(name)
        streak, previous, state = health.record_outcome(seconds, ok, serial)
        (ok_child if ok else error_child).inc()
        streak_child.set(streak)
        if state != previous:
            # The gauge was bound at 0 (healthy), the state every device
            # starts in, so it moves only on a transition.
            state_child.set(STATE_CODES[state])
            self.journal.emit(
                HEALTH_TRANSITION,
                device=name,
                previous=previous,
                state=state,
                streak=streak,
                error_rate=round(health.error_rate, 4),
            )

    def record_link(
        self, name: str, samples: Iterable[tuple[float, bool]]
    ) -> None:
        """The device feed: raw add/modify/delete ops at the device, as
        ``(seconds, ok)`` pairs — one blocking op, or a whole link flush
        (the link dispatcher reports each flush in one call)."""
        if not self.enabled:
            return
        self._device(name).record_links(samples)

    def link_observer(self, name: str):
        """An ``op_observer`` callable for :class:`repro.devices.base.Device`."""

        def observer(op: str, key: str, seconds: float, ok: bool) -> None:
            self.record_link(name, ((seconds, ok),))

        return observer

    # -- derived / export --------------------------------------------------

    def _gauges(self, name: str) -> tuple:
        """The low-rate gauge children of one device, resolved once:
        error rate, streak, state, lag and quantile → latency child."""
        children = self._gauge_children.get(name)
        if children is None:
            # Benign race, as in _hot: concurrent cycles resolve the same
            # registry children.
            _, _, _, streak_child, state_child = self._hot(name)
            children = (
                self._error_rate_gauge.labels(device=name),
                streak_child,
                state_child,
                self._lag_gauge.labels(device=name),
                {},
            )
            self._gauge_children[name] = children
        return children

    def refresh_gauges(
        self,
        last_serial: int | None = None,
        lags: Mapping[str, int] | None = None,
    ) -> None:
        """Publish the low-rate gauges (percentiles, error rate, lag).

        Called by the consistency auditor each cycle — percentile sorts
        and lag math stay off the per-update hot path.  *lags* holds
        device lags the caller already computed against *last_serial*;
        any other device's lag is computed here.
        """
        if not self.enabled:
            return
        for health in self.devices():
            name = health.name
            error_child, streak_child, state_child, lag_child, latency = (
                self._gauges(name)
            )
            error_child.set(health.error_rate)
            streak_child.set(health.streak)
            state_child.set(STATE_CODES[health.state])
            for quantile, value in health.latency().items():
                child = latency.get(quantile)
                if child is None:
                    child = latency[quantile] = self._latency_gauge.labels(
                        device=name, quantile=quantile
                    )
                child.set(value)
            if last_serial is not None:
                lag = lags.get(name) if lags is not None else None
                if lag is None:
                    lag = max(0, last_serial - health.last_applied_serial)
                lag_child.set(lag)

    def snapshot(self) -> dict:
        return {h.name: h.snapshot() for h in self.devices()}
