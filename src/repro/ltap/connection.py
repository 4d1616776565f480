"""Connections from LTAP to a trigger action server.

Section 5.1 of the paper: "LTAP originally only allowed a single update per
connection from LTAP to a trigger action server (e.g. UM), but to
differentiate synchronization requests from individual updates, persistent
connections were added which allow a sequence of updates."

A :class:`SingleShotConnection` carries exactly one event; a
:class:`PersistentConnection` carries a whole sequence (a synchronization
request) and signals its extent with explicit close.  The Update Manager
uses the connection kind to decide whether it is looking at an individual
update or at a sync batch that must be applied in isolation.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .triggers import TriggerEvent

_connection_ids = itertools.count(1)

EventSink = Callable[[TriggerEvent, "ActionConnection"], None]


class ConnectionClosedError(RuntimeError):
    pass


class ActionConnection:
    """Base class: a channel delivering trigger events to an action server."""

    persistent = False

    def __init__(self, sink: EventSink):
        self.connection_id = next(_connection_ids)
        self._sink = sink
        self.closed = False
        self.events_sent = 0

    def send(self, event: TriggerEvent) -> None:
        if self.closed:
            raise ConnectionClosedError(
                f"connection {self.connection_id} is closed"
            )
        self._deliver(event)

    def _deliver(self, event: TriggerEvent) -> None:
        self.events_sent += 1
        self._sink(event, self)

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "ActionConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.closed:
            self.close()


class SingleShotConnection(ActionConnection):
    """The original LTAP behaviour: one update per connection."""

    persistent = False

    def send(self, event: TriggerEvent) -> None:
        if self.closed:
            raise ConnectionClosedError(
                f"connection {self.connection_id} is closed"
            )
        if self.events_sent >= 1:
            raise ConnectionClosedError(
                "single-shot connections carry exactly one update"
            )
        self._deliver(event)
        self.close()


class PersistentConnection(ActionConnection):
    """The section-5.1 extension: a sequence of updates on one connection."""

    persistent = True


class ConnectionManager:
    """Opens connections toward one action server."""

    def __init__(self, sink: EventSink):
        self._sink = sink

    def open(self, persistent: bool = False) -> ActionConnection:
        if persistent:
            return PersistentConnection(self._sink)
        return SingleShotConnection(self._sink)
