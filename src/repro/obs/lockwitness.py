"""Runtime lock witness: the dynamic half of the LX5xx concurrency tier.

The static pass (:mod:`repro.analysis.concur`) derives a lock acquisition-
order graph from the source; this module *checks the running system
against it*.  ``MetaCommConfig(lock_witness=True)`` wraps every
registered subsystem lock in an order-recording proxy:

* each thread keeps a stack of the witness locks it currently holds;
* every acquisition records the ordered pair ``(held, acquired)`` into a
  process graph pre-seeded with the static analyzer's edges;
* an acquisition whose reverse order is already reachable in that graph
  is an **inversion witness** — exactly the two-threads-opposite-orders
  interleaving LX501 reports statically, caught in vivo.  The witness
  journals a ``witness.violation`` event carrying both lock names and
  both acquisition stacks, and keeps counting (it never raises into the
  runtime's own code paths).

``Condition.wait`` is modelled faithfully: the wait releases the
underlying lock, so the witness pops it for the duration and re-pushes on
wake — a foreign lock held across the wait still produces its edge.

Metrics: ``metacomm_lockwitness_acquisitions_total{lock=...}``,
``metacomm_lockwitness_violations_total`` and
``metacomm_lockwitness_edges`` (observed-edge count, static seeds
excluded).

Overhead is one dict probe plus a list push per acquisition — meant for
tests, stress runs and canary deployments, not steady-state production.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass

from .events import WITNESS_VIOLATION, EventJournal
from .metrics import MetricsRegistry

__all__ = ["LockWitness", "WitnessViolation", "witness_system"]


@dataclass(frozen=True)
class WitnessViolation:
    """One observed acquisition-order reversal."""

    held: str
    acquired: str
    #: The path held -> ... -> acquired already present in the graph that
    #: the new (acquired -> ... -> held edge's reverse) pair contradicts.
    known_path: tuple[str, ...]
    thread: str
    acquire_stack: str
    #: Stack captured when the conflicting *held* lock was taken.
    held_stack: str

    def to_dict(self) -> dict:
        return {
            "held": self.held,
            "acquired": self.acquired,
            "known_path": list(self.known_path),
            "thread": self.thread,
            "acquire_stack": self.acquire_stack,
            "held_stack": self.held_stack,
        }


@dataclass
class _Held:
    """One entry of a thread's held-lock stack."""

    name: str
    stack: str
    #: Re-entrant acquisition depth (RLocks re-acquire without edges).
    count: int = 1
    #: Condition.wait temporarily releases the lock without popping
    #: bookkeeping in the caller's ``with`` block.
    suspended: bool = False


class LockWitness:
    """Order-recording proxies over the runtime's locks."""

    def __init__(self, journal=None, registry=None, static_order=None):
        registry = registry if registry is not None else MetricsRegistry()
        self.journal = journal or EventJournal(registry=registry)
        #: name -> set of names observed/declared to be acquired later.
        self._after: dict[str, set[str]] = {}
        self._static_pairs: set[tuple[str, str]] = set()
        for held, acquired in static_order or ():
            self._after.setdefault(held, set()).add(acquired)
            self._static_pairs.add((held, acquired))
        self._observed: set[tuple[str, str]] = set()
        self._violations: list[WitnessViolation] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._acquisitions = registry.counter(
            "metacomm_lockwitness_acquisitions_total",
            "Lock acquisitions recorded by the runtime lock witness.",
            labelnames=("lock",),
        )
        self.journal.derive(
            WITNESS_VIOLATION,
            registry.counter(
                "metacomm_lockwitness_violations_total",
                "Acquisition-order reversals the lock witness observed.",
            ),
        )
        self._edge_gauge = registry.gauge(
            "metacomm_lockwitness_edges",
            "Distinct acquisition-order pairs observed at runtime.",
        )

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, lock):
        """An order-recording proxy for *lock*, registered as *name*.

        Names follow the static analyzer's identity convention —
        ``DefiningClass.attr`` — so runtime pairs line up with the
        static graph's nodes."""
        if isinstance(lock, (_WitnessLock, _WitnessCondition)):
            return lock
        if hasattr(lock, "wait"):
            return _WitnessCondition(self, name, lock)
        return _WitnessLock(self, name, lock)

    # -- inspection ---------------------------------------------------------

    def violations(self) -> list[WitnessViolation]:
        with self._lock:
            return list(self._violations)

    def observed_pairs(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._observed)

    def pairs(self) -> list[tuple[str, str]]:
        """Every edge in the merged graph (static seeds + observed)."""
        with self._lock:
            return sorted(
                (held, acquired)
                for held, afters in self._after.items()
                for acquired in afters
            )

    @property
    def ok(self) -> bool:
        with self._lock:
            return not self._violations

    # -- the recording core -------------------------------------------------

    def _stack(self) -> list[_Held]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = []
            self._local.held = held
        return held

    def _note_acquired(self, name: str) -> None:
        self._acquisitions.labels(lock=name).inc()
        stack = self._stack()
        for entry in reversed(stack):
            if entry.name == name and not entry.suspended:
                entry.count += 1  # re-entrant RLock acquire: no new edges
                return
        frame = "".join(traceback.format_stack(limit=12)[:-2])
        for entry in stack:
            if entry.suspended or entry.name == name:
                continue
            self._record_edge(entry, name, frame)
        stack.append(_Held(name=name, stack=frame))

    def _note_released(self, name: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            entry = stack[index]
            if entry.name == name and not entry.suspended:
                entry.count -= 1
                if entry.count == 0:
                    del stack[index]
                return

    def _record_edge(self, held: _Held, acquired: str, frame: str) -> None:
        with self._lock:
            if acquired in self._after.get(held.name, ()):
                return
            path = self._path(acquired, held.name)
            if path is not None:
                violation = WitnessViolation(
                    held=held.name,
                    acquired=acquired,
                    known_path=tuple(path),
                    thread=threading.current_thread().name,
                    acquire_stack=frame,
                    held_stack=held.stack,
                )
                self._violations.append(violation)
            else:
                violation = None
                self._after.setdefault(held.name, set()).add(acquired)
                self._observed.add((held.name, acquired))
                self._edge_gauge.set(len(self._observed))
        if violation is None:
            return
        self.journal.emit(WITNESS_VIOLATION, **violation.to_dict())

    def _path(self, start: str, goal: str) -> list[str] | None:
        """A path start -> ... -> goal in the graph, or None.

        Caller holds ``_lock``."""
        if start == goal:
            return [start]
        seen = {start}
        frontier = [[start]]
        while frontier:
            path = frontier.pop()
            for nxt in self._after.get(path[-1], ()):
                if nxt == goal:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(path + [nxt])
        return None

    # -- Condition.wait bookkeeping -----------------------------------------

    def _suspend(self, name: str) -> _Held | None:
        """Mark *name* released for the duration of a Condition.wait."""
        for entry in reversed(self._stack()):
            if entry.name == name and not entry.suspended:
                entry.suspended = True
                return entry
        return None

    def _resume(self, entry: _Held | None) -> None:
        if entry is not None:
            entry.suspended = False


class _WitnessLock:
    """Proxy over ``threading.Lock``/``RLock`` recording order pairs."""

    def __init__(self, witness: LockWitness, name: str, inner):
        self._witness = witness
        self._name = name
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._witness._note_acquired(self._name)
        return got

    def release(self) -> None:
        self._inner.release()
        self._witness._note_released(self._name)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __repr__(self) -> str:
        return f"<witness {self._name} over {self._inner!r}>"


class _WitnessCondition:
    """Proxy over ``threading.Condition`` — wait releases, wake reacquires."""

    def __init__(self, witness: LockWitness, name: str, inner):
        self._witness = witness
        self._name = name
        self._inner = inner

    def acquire(self, *args, **kwargs) -> bool:
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._witness._note_acquired(self._name)
        return got

    def release(self) -> None:
        self._inner.release()
        self._witness._note_released(self._name)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def wait(self, timeout: float | None = None) -> bool:
        entry = self._witness._suspend(self._name)
        try:
            return self._inner.wait(timeout)
        finally:
            self._witness._resume(entry)

    def wait_for(self, predicate, timeout: float | None = None):
        entry = self._witness._suspend(self._name)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._witness._resume(entry)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()

    def __repr__(self) -> str:
        return f"<witness {self._name} over {self._inner!r}>"


def witness_system(system, witness: LockWitness | None = None) -> LockWitness:
    """Wrap a :class:`~repro.core.MetaComm` instance's subsystem locks.

    Each lock is registered under its static identity
    (``DefiningClass.attr``), so observed pairs line up with
    :func:`repro.analysis.concur.static_lock_order` — which seeds the
    witness graph unless a pre-built *witness* is passed in."""
    if witness is None:
        from ..analysis.concur import static_lock_order

        witness = LockWitness(
            journal=system.obs.journal,
            registry=system.obs.registry,
            static_order=static_lock_order(),
        )
    journal = system.obs.journal
    journal._lock = witness.wrap("EventJournal._lock", journal._lock)
    board = system.obs.health
    board._lock = witness.wrap("HealthBoard._lock", board._lock)
    backend = system.server.backend
    backend._lock = witness.wrap("Backend._lock", backend._lock)
    gateway = system.gateway
    gateway._quiesce_lock = witness.wrap(
        "LtapGateway._quiesce_lock", gateway._quiesce_lock
    )
    queue = system.um.queue
    queue._cond = witness.wrap("UpdateQueue._cond", queue._cond)
    alerts = system.alerts
    alerts._lock = witness.wrap("AlertEngine._lock", alerts._lock)
    error_log = system.error_log
    error_log._lock = witness.wrap("ErrorLog._lock", error_log._lock)
    auditor = system.auditor
    auditor._lock = witness.wrap("ConsistencyAuditor._lock", auditor._lock)
    links = getattr(system, "links", None)
    if links is not None:
        # Safe only because MetaComm defers links.start() until after this
        # wrapping: swapping a Condition out from under a waiting thread
        # would split the waiters between two locks.
        links._cond = witness.wrap("LinkDispatcher._cond", links._cond)
        links._notify_cond = witness.wrap(
            "LinkDispatcher._notify_cond", links._notify_cond
        )
    return witness
