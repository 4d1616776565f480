"""Trigger definitions for the LTAP gateway.

LDAP servers "provide no support for triggers" (paper section 4.3); LTAP
adds them by intercepting the update stream.  A trigger names the update
operations it watches, a subtree, an optional LDAP filter over the target
entry, a timing (before/after the server applies the operation), and an
action callable.

* BEFORE triggers may veto the operation by raising
  :class:`~repro.ldap.result.LdapError` (or anything else — the error is
  converted into an LDAP failure response and the operation never reaches
  the server).
* AFTER triggers run once the server has committed; in MetaComm the Update
  Manager registers an AFTER trigger whose action drives the whole
  propagation sequence while the entry lock is still held.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..ldap.backend import ChangeType
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filter import Filter, parse_filter
from ..ldap.protocol import LdapRequest, Session

ALL_OPS = frozenset(
    {ChangeType.ADD, ChangeType.DELETE, ChangeType.MODIFY, ChangeType.MODIFY_RDN}
)


class TriggerTiming(enum.Enum):
    BEFORE = "before"
    AFTER = "after"


@dataclass
class TriggerEvent:
    """What a trigger action receives."""

    change_type: ChangeType
    dn: DN
    request: LdapRequest
    #: Entry image before the operation (None for adds).
    before: Entry | None
    #: Entry image after the operation (None for deletes; None for BEFORE
    #: triggers, which run pre-commit).
    after: Entry | None
    #: The session that issued the triggering request.  Handing this to the
    #: trigger action lets the Update Manager re-enter the entry lock that
    #: the gateway is holding on the session's behalf.
    session: Session
    timing: TriggerTiming = TriggerTiming.AFTER

    @property
    def effective(self) -> Entry | None:
        return self.after if self.after is not None else self.before


TriggerAction = Callable[[TriggerEvent], None]

_trigger_ids = itertools.count(1)


@dataclass
class Trigger:
    """One registered trigger."""

    action: TriggerAction
    ops: frozenset[ChangeType] = ALL_OPS
    base: DN = field(default_factory=DN.root)
    filter: Filter | str | None = None
    timing: TriggerTiming = TriggerTiming.AFTER
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.base, str):
            self.base = DN.parse(self.base)
        if isinstance(self.filter, str):
            self.filter = parse_filter(self.filter)
        if not self.name:
            self.name = f"trigger-{next(_trigger_ids)}"

    def matches(self, event: TriggerEvent) -> bool:
        if event.change_type not in self.ops:
            return False
        if not event.dn.is_under(self.base):
            return False
        if self.filter is not None:
            entry = event.effective
            if entry is None or not self.filter.matches(entry):
                return False
        return True


class TriggerRegistry:
    """Ordered collection of triggers with registration management."""

    def __init__(self) -> None:
        self._triggers: list[Trigger] = []

    def register(self, trigger: Trigger) -> Trigger:
        if any(t.name == trigger.name for t in self._triggers):
            raise ValueError(f"trigger {trigger.name!r} already registered")
        self._triggers.append(trigger)
        return trigger

    def unregister(self, name: str) -> None:
        for i, trigger in enumerate(self._triggers):
            if trigger.name == name:
                del self._triggers[i]
                return
        raise ValueError(f"no trigger named {name!r}")

    def __len__(self) -> int:
        return len(self._triggers)

    def __iter__(self):
        return iter(self._triggers)

    def fire(self, event: TriggerEvent) -> None:
        """Run all matching triggers for *event* in registration order."""
        for trigger in list(self._triggers):
            if trigger.timing is not event.timing:
                continue
            if trigger.matches(event):
                trigger.action(event)
