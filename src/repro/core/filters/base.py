"""Filter framework: the per-repository adapters of MetaComm.

Paper section 4.1: "a filter is associated with each repository type.
Each filter has two components: a protocol converter and mapper.  The
protocol converter provides a unified API for all repositories, which
consists of: a method to retrieve a record given its key (or id); the
ability to receive notifications from the device; and methods to add,
modify and delete records in the device.  Additionally ... the API must
also provide a method to retrieve all relevant data from the repository."

The mapper half lives in lexpress; a filter holds the compiled mappings
for its schema pair and applies :class:`TargetUpdate`\\ s to its
repository — including the section-5.4 conditional semantics for
reapplied updates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ...lexpress.descriptor import TargetAction, TargetUpdate, UpdateDescriptor
from ...obs.metrics import LabelCache, MetricsRegistry


class FilterError(Exception):
    """An update could not be applied at a repository.

    Carries enough context for the Update Manager's error log."""

    def __init__(self, target: str, message: str):
        super().__init__(f"{target}: {message}")
        self.target = target
        self.message = message


@dataclass
class ApplyResult:
    """What applying one TargetUpdate produced."""

    target: str
    action: TargetAction
    applied: bool
    #: True when conditional recovery kicked in (add→modify or modify→add).
    recovered: bool = False
    #: Device-generated information to fold back into the directory
    #: (section 5.5) — e.g. {"MailboxId": ["MB-000123"]}.
    generated: dict[str, list[str]] = field(default_factory=dict)


#: Signature for the UM callback a filter invokes on a direct device update.
DduHandler = Callable[["Filter", UpdateDescriptor], None]


class Filter(abc.ABC):
    """One repository adapter: protocol converter + mapper."""

    def __init__(
        self,
        name: str,
        schema: str,
        registry: MetricsRegistry | None = None,
    ):
        #: Instance name, e.g. ``pbx-west`` (appears in Originator checks).
        self.name = name
        #: Schema name the repository speaks, e.g. ``pbx``.
        self.schema = schema
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events = self.registry.counter(
            "metacomm_filter_events_total",
            "Per-repository apply outcomes and DDU notifications",
            labelnames=("filter", "event"),
        )
        self._apply_seconds = self.registry.histogram(
            "metacomm_filter_apply_seconds",
            "Latency of applying one translated update at a repository",
            labelnames=("filter",),
        )
        self._event_children = LabelCache(self._events, filter=name)
        self._apply_children = LabelCache(self._apply_seconds)

    def _count(self, event: str, amount: int = 1) -> None:
        self._event_children[event].inc(amount)

    def _apply_timer(self):
        """Histogram timer for one ``apply`` call (used by subclasses)."""
        return self._apply_children[self.name].time()

    # -- unified repository API (section 4.1) ---------------------------------

    @abc.abstractmethod
    def fetch(self, key: str) -> dict[str, list[str]] | None:
        """Retrieve a record by key; None when absent."""

    @abc.abstractmethod
    def dump(self) -> list[dict[str, list[str]]]:
        """All relevant records (the synchronization API)."""

    @abc.abstractmethod
    def apply(self, update: TargetUpdate) -> ApplyResult:
        """Apply a translated update to the repository."""

    def before_image(self, update: TargetUpdate) -> dict[str, list[str]] | None:
        """The record an update is about to touch, as it stands now.

        Captured during the planning stage, before any device write of
        the sequence, so saga compensation and parallel-mode rollback can
        restore it verbatim.  None for keyless updates or absent records."""
        key = update.old_key or update.key
        return self.fetch(key) if key is not None else None

    def compensate(
        self,
        update: TargetUpdate,
        before: Mapping[str, list[str]] | None,
    ) -> None:
        """Undo a previously applied update using its pre-update image.

        Part of the unified repository API so the pipeline's failure
        policies (saga compensation, parallel rollback) can target any
        filter; repositories that cannot undo raise."""
        raise NotImplementedError(f"{self.name} cannot compensate updates")

    # -- bookkeeping helpers ------------------------------------------------------

    def _track(self, result: ApplyResult, update: TargetUpdate) -> ApplyResult:
        if update.conditional:
            self._count("conditional")
        if result.recovered:
            self._count("recovered")
        if result.applied:
            self._count("applied")
        else:
            self._count("skipped")
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
