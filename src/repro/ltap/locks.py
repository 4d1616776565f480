"""Entry-level locking for the LTAP gateway.

The paper (section 4.3): "LTAP also provides locking facilities, forbidding
updates to an entry while trigger processing is being performed on that
entry."  Locks are:

* **per normalized DN** — independent entries never contend;
* **owner re-entrant** — the Update Manager, holding the lock that the
  triggering request acquired, can issue follow-up updates to the same
  entry without deadlocking;
* **blocking with a timeout** — a conflicting LDAP update waits until the
  update sequence finishes (paper section 4.4), and surfaces ``busy`` only
  if the wait exceeds the timeout.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..ldap.dn import DN
from ..ldap.result import BusyError


@dataclass
class _LockState:
    owner: object | None = None
    count: int = 0
    waiters: int = 0


class LockManager:
    """Owner-re-entrant per-DN locks."""

    def __init__(self, default_timeout: float = 5.0):
        self.default_timeout = default_timeout
        self._cond = threading.Condition()
        self._locks: dict[tuple, _LockState] = {}

    def acquire(self, dn: DN, owner: object, timeout: float | None = None) -> None:
        """Acquire the lock on *dn* for *owner*, waiting if needed."""
        if timeout is None:
            timeout = self.default_timeout
        key = dn.normalized()
        deadline: float | None = None
        with self._cond:
            state = self._locks.setdefault(key, _LockState())
            while state.owner is not None and state.owner is not owner:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                remaining = deadline - now
                if remaining <= 0:
                    raise BusyError(f"entry {dn} is locked by trigger processing")
                state.waiters += 1
                self._cond.wait(remaining)
                state.waiters -= 1
            state.owner = owner
            state.count += 1

    def release(self, dn: DN, owner: object) -> None:
        key = dn.normalized()
        with self._cond:
            state = self._locks.get(key)
            if state is None or state.owner is not owner:
                raise RuntimeError(f"releasing lock on {dn} not held by this owner")
            state.count -= 1
            if state.count == 0:
                state.owner = None
                if state.waiters:
                    self._cond.notify_all()
                else:
                    del self._locks[key]

    def is_locked(self, dn: DN) -> bool:
        with self._cond:
            state = self._locks.get(dn.normalized())
            return state is not None and state.owner is not None

    def holder(self, dn: DN) -> object | None:
        with self._cond:
            state = self._locks.get(dn.normalized())
            return state.owner if state else None

    def held_count(self) -> int:
        with self._cond:
            return sum(1 for s in self._locks.values() if s.owner is not None)


class EntryLock:
    """Context-manager sugar: ``with EntryLock(locks, dn, owner): ...``."""

    def __init__(
        self,
        manager: LockManager,
        dn: DN,
        owner: object,
        timeout: float | None = None,
    ):
        self.manager = manager
        self.dn = dn
        self.owner = owner
        self.timeout = timeout

    def __enter__(self) -> "EntryLock":
        self.manager.acquire(self.dn, self.owner, self.timeout)
        return self

    def __exit__(self, *exc_info) -> None:
        self.manager.release(self.dn, self.owner)
