"""Legacy device simulation framework.

The paper's devices — a Definity PBX and a voice messaging platform — are
exactly the kind of repository MetaComm exists to tame: weakly typed
(everything is a string, over-long values silently truncated), atomic only
at single-record granularity, no triggers beyond a change notification
"noted during transaction commit", and administered through proprietary
interfaces.  :class:`Device` models those properties faithfully so that
the Update Manager's machinery is exercised against the same weaknesses.

Devices are usable entirely on their own (the paper's requirement: "the
devices must be usable with or without MetaComm") — direct device updates
(DDUs) are just calls made by some other agent.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping


# Thread-local marker set by the link dispatcher while it executes queued
# operations: the round-trip was already paid for the whole batch, so the
# per-op link simulation and per-op telemetry are suppressed, and commit
# notifications are *deferred* to the dispatcher's notifier thread instead
# of being delivered inline (a DDU listener may fan back into the links and
# must not run on the dispatcher itself).
_LINK_EXECUTION = threading.local()


@contextmanager
def link_execution(sink: list["DeviceNotification"]):
    """Mark the current thread as executing inside a device-link flush."""
    _LINK_EXECUTION.sink = sink
    try:
        yield
    finally:
        _LINK_EXECUTION.sink = None


def _link_sink() -> "list[DeviceNotification] | None":
    return getattr(_LINK_EXECUTION, "sink", None)


class DeviceError(Exception):
    """Base class for device failures (legacy-style terse messages)."""


class NoSuchRecordError(DeviceError):
    pass


class DuplicateRecordError(DeviceError):
    pass


class InvalidFieldError(DeviceError):
    pass


class DeviceUnavailableError(DeviceError):
    """The device is disconnected/unreachable (used for failure injection
    and disconnected-operation experiments)."""


@dataclass(frozen=True)
class FieldSpec:
    """One field of a device record.

    ``max_length`` models the weak typing of legacy gear: longer values
    are *silently truncated*, never rejected.  ``validator`` returns an
    error string for genuinely malformed values (e.g. non-numeric
    extension).  ``generated`` fields are assigned by the device itself
    and cannot be written by callers (section 5.5's mailbox id)."""

    name: str
    max_length: int = 64
    required: bool = False
    generated: bool = False
    validator: Callable[[str], str | None] | None = None


@dataclass(frozen=True)
class DeviceNotification:
    """Change notification emitted at transaction commit.

    ``agent`` identifies the management session that made the change; the
    MetaComm device filter uses it to tell direct device updates (DDUs)
    apart from the Update Manager's own propagated writes."""

    device: str
    op: str  # "add" | "modify" | "delete"
    key: str
    before: dict[str, str] | None
    after: dict[str, str] | None
    agent: str


NotificationListener = Callable[[DeviceNotification], None]


class Device:
    """A generic legacy repository: flat records keyed by one field."""

    def __init__(
        self,
        name: str,
        key_field: str,
        fields: Iterable[FieldSpec],
    ):
        self.name = name
        self.key_field = key_field
        self.fields: dict[str, FieldSpec] = {f.name.lower(): f for f in fields}
        if key_field.lower() not in self.fields:
            raise ValueError(f"key field {key_field!r} is not declared")
        self._records: dict[str, dict[str, str]] = {}
        self._lock = threading.RLock()
        self._listeners: list[NotificationListener] = []
        self.available = True
        #: Simulated management-link round-trip (seconds) paid by every
        #: write operation, before the record lock is taken — real gear is
        #: reached over a serial craft interface or network hop, and the
        #: fan-out benchmarks use this to model that latency.
        self.link_latency: float = 0.0
        #: When True the management link is modelled as a *serial craft
        #: channel*: concurrent write ops queue for the channel and each
        #: holds it for its full round-trip(s).  Real OSSI terminals are
        #: single administration sessions — two blocking writers cannot
        #: overlap their round-trips.  Off by default so existing tests and
        #: benchmarks keep the optimistic parallel-link model.
        self.link_serial: bool = False
        #: Number of OSSI commands one mutating op costs on the blocking
        #: path (e.g. a messaging add = add subscriber + set COS + enable).
        #: The pipelined link stream amortises these: a flushed batch is one
        #: command stream, i.e. one round-trip, regardless of op count.
        self.link_commands: int = 1
        self._channel_lock = threading.Lock()
        self._channel_free_at = 0.0
        #: Optional fault hook: called as (op, key) before each update and
        #: may raise to simulate device errors.
        self.fault_injector: Callable[[str, str], None] | None = None
        #: Optional link-telemetry hook: called as
        #: ``(op, key, seconds, ok)`` after every blocking write operation
        #: with the wall-clock of the whole op (including the simulated
        #: link round-trip).  The MetaComm health board attaches one per
        #: device (:meth:`repro.obs.health.HealthBoard.link_observer`);
        #: direct device updates and sync pushes are observed too, since
        #: they travel the same management link.  Ops run by a device
        #: link's flush are reported by the link dispatcher instead, one
        #: call per flush.
        self.op_observer: Callable[[str, str, float, bool], None] | None = None
        self.statistics = {"adds": 0, "modifies": 0, "deletes": 0, "reads": 0}

    # -- notifications -------------------------------------------------------

    def add_listener(self, listener: NotificationListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: NotificationListener) -> None:
        self._listeners.remove(listener)

    def _notify(self, notification: DeviceNotification) -> None:
        sink = _link_sink()
        if sink is not None:
            # Inside a link flush: queue for the dispatcher's notifier
            # thread, which delivers in commit order.
            sink.append(notification)
            return
        for listener in list(self._listeners):
            listener(notification)

    # -- validation (weak typing) -------------------------------------------------

    def _coerce(self, record: Mapping[str, str], adding: bool) -> dict[str, str]:
        out: dict[str, str] = {}
        for name, value in record.items():
            spec = self.fields.get(name.lower())
            if spec is None:
                raise InvalidFieldError(f"{self.name}: no such field {name!r}")
            if value is None:
                continue
            text = str(value)
            # Weak typing: silent truncation, exactly like the real gear.
            text = text[: spec.max_length]
            if spec.validator is not None:
                problem = spec.validator(text)
                if problem:
                    raise InvalidFieldError(f"{self.name}: {spec.name}: {problem}")
            out[spec.name] = text
        if adding:
            for spec in self.fields.values():
                if spec.required and not spec.generated and spec.name not in out:
                    raise InvalidFieldError(
                        f"{self.name}: missing required field {spec.name!r}"
                    )
        return out

    def _check_available(self) -> None:
        if not self.available:
            raise DeviceUnavailableError(f"{self.name}: device unreachable")

    def _fault(self, op: str, key: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector(op, key)

    def _link(self) -> None:
        """Pay one management-link round-trip for a blocking write.

        Suppressed inside a link flush — the pipelined stream already paid
        one round-trip for the whole batch.  With :attr:`link_serial` the
        op reserves the craft channel for ``link_commands`` sequential
        round-trips (the slot is computed under the channel lock, the wait
        happens outside it)."""
        if _link_sink() is not None:
            return
        latency = self.link_latency
        if latency <= 0:
            return
        if self.link_serial:
            self._wait_channel(latency * max(1, self.link_commands))
        else:
            time.sleep(latency)

    def reserve_channel(self, duration: float) -> float:
        """Reserve the next free slot on the serial craft channel.

        Returns the monotonic time at which the reserved round-trip
        completes; does not block.  The link dispatcher uses this as the
        batch-completion deadline for a flushed command stream."""
        with self._channel_lock:
            start = max(time.monotonic(), self._channel_free_at)
            self._channel_free_at = start + duration
        return start + duration

    def _wait_channel(self, duration: float) -> None:
        wake = self.reserve_channel(duration)
        delay = wake - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def _observed(self, op: str, key: str, body: Callable, *args):
        """Run one write op, ``body(*args)``, timed for the
        ``op_observer`` link-telemetry hook.

        Untimed when no observer is attached; observer exceptions are
        swallowed — telemetry must never change device semantics.
        Suppressed inside a link flush: the dispatcher reports the full
        submit-to-completion latency itself, and a second near-zero
        sample here would pollute the reservoir.  A plain call rather
        than a generator context manager: it wraps every device write."""
        observer = self.op_observer
        if observer is None or _link_sink() is not None:
            return body(*args)
        start = time.perf_counter()
        ok = False
        try:
            result = body(*args)
            ok = True
            return result
        finally:
            try:
                observer(op, str(key), time.perf_counter() - start, ok)
            except Exception:
                pass

    # -- hooks for subclasses ------------------------------------------------------

    def _generate_fields(self, record: dict[str, str]) -> None:
        """Fill device-generated fields at add time (override in subclasses)."""

    def _validate_record(self, record: dict[str, str]) -> None:
        """Cross-field validation hook (override in subclasses)."""

    # -- operations ------------------------------------------------------------

    def add(self, record: Mapping[str, str], agent: str = "local") -> dict[str, str]:
        """Add a record; returns the committed record (with generated fields)."""
        return self._observed(
            "add", record.get(self.key_field, ""), self._add, record, agent
        )

    def _add(self, record: Mapping[str, str], agent: str) -> dict[str, str]:
        self._check_available()
        self._link()
        committed = self._coerce(record, adding=True)
        for name in committed:
            if self.fields[name.lower()].generated:
                raise InvalidFieldError(
                    f"{self.name}: field {name!r} is assigned by the device"
                )
        with self._lock:
            key = committed.get(self.key_field)
            if not key:
                raise InvalidFieldError(
                    f"{self.name}: missing key field {self.key_field!r}"
                )
            self._fault("add", key)
            if key in self._records:
                raise DuplicateRecordError(f"{self.name}: {self.key_field}={key} exists")
            self._generate_fields(committed)
            self._validate_record(committed)
            self._records[key] = dict(committed)
            self.statistics["adds"] += 1
            notification = DeviceNotification(
                self.name, "add", key, None, dict(committed), agent
            )
        # Notifications are delivered after commit, outside the record
        # lock — a listener (the MetaComm filter) may call back into the
        # device from another thread.
        self._notify(notification)
        return dict(committed)

    def modify(
        self,
        key: str,
        changes: Mapping[str, str | None],
        agent: str = "local",
    ) -> dict[str, str]:
        """Modify fields of one record; a None value removes the field.
        The whole change commits atomically or not at all."""
        return self._observed("modify", key, self._modify, key, changes, agent)

    def _modify(
        self,
        key: str,
        changes: Mapping[str, str | None],
        agent: str,
    ) -> dict[str, str]:
        self._check_available()
        self._link()
        key = str(key)
        with self._lock:
            self._fault("modify", key)
            current = self._records.get(key)
            if current is None:
                raise NoSuchRecordError(f"{self.name}: no {self.key_field}={key}")
            removed = [n for n, v in changes.items() if v is None]
            updates = self._coerce(
                {n: v for n, v in changes.items() if v is not None}, adding=False
            )
            for name in updates:
                if self.fields[name.lower()].generated:
                    raise InvalidFieldError(
                        f"{self.name}: field {name!r} is assigned by the device"
                    )
            updated = dict(current)
            for name in removed:
                spec = self.fields.get(name.lower())
                if spec is None:
                    raise InvalidFieldError(f"{self.name}: no such field {name!r}")
                if spec.name == self.key_field or spec.required:
                    raise InvalidFieldError(
                        f"{self.name}: cannot remove field {spec.name!r}"
                    )
                updated.pop(spec.name, None)
            updated.update(updates)
            new_key = updated.get(self.key_field)
            if not new_key:
                raise InvalidFieldError(f"{self.name}: key cannot be empty")
            if new_key != key and new_key in self._records:
                raise DuplicateRecordError(
                    f"{self.name}: {self.key_field}={new_key} exists"
                )
            self._validate_record(updated)
            del self._records[key]
            self._records[new_key] = updated
            self.statistics["modifies"] += 1
            notification = DeviceNotification(
                self.name, "modify", key, dict(current), dict(updated), agent
            )
        self._notify(notification)
        return dict(updated)

    def delete(self, key: str, agent: str = "local") -> dict[str, str]:
        return self._observed("delete", key, self._delete, key, agent)

    def _delete(self, key: str, agent: str) -> dict[str, str]:
        self._check_available()
        self._link()
        key = str(key)
        with self._lock:
            self._fault("delete", key)
            current = self._records.pop(key, None)
            if current is None:
                raise NoSuchRecordError(f"{self.name}: no {self.key_field}={key}")
            self.statistics["deletes"] += 1
            notification = DeviceNotification(
                self.name, "delete", key, dict(current), None, agent
            )
        self._notify(notification)
        return dict(current)

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> dict[str, str]:
        self._check_available()
        with self._lock:
            self.statistics["reads"] += 1
            record = self._records.get(str(key))
            if record is None:
                raise NoSuchRecordError(f"{self.name}: no {self.key_field}={key}")
            return dict(record)

    def contains(self, key: str) -> bool:
        with self._lock:
            return str(key) in self._records

    def dump(self) -> list[dict[str, str]]:
        """All records — the synchronization API of section 4.1."""
        self._check_available()
        with self._lock:
            return [dict(r) for r in self._records.values()]

    def size(self) -> int:
        with self._lock:
            return len(self._records)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._records)
