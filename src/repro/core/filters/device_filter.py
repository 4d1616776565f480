"""Filter over a legacy :class:`~repro.devices.base.Device`.

Covers both the PBX filter and the Messaging Platform filter of Figure 1 —
the protocol half differs only in the device handed in, exactly the reuse
the paper describes ("This separation between protocol and mapping allows
protocol-specific software to be reused with varying schema").

Responsibilities:

* translate device records to/from the canonical list-valued form;
* listen for device commit notifications, classify direct device updates
  (any agent other than our own) and hand them to the Update Manager as
  lexpress descriptors;
* apply TargetUpdates with the section-5.4 conditional semantics:
  a conditional ADD is tried as a modify first (falling back to add),
  a conditional MODIFY falls back to add when the record is missing,
  a conditional DELETE tolerates an already-deleted record.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Mapping

from ...devices.base import Device, DeviceError, NoSuchRecordError
from ...lexpress.descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
)
from .base import ApplyResult, DduHandler, Filter, FilterError

#: Agent string the filter uses for its own writes — notifications carrying
#: it are the UM's own propagated updates, not DDUs.
UM_AGENT = "metacomm-um"


def _to_lists(record: Mapping[str, str]) -> dict[str, list[str]]:
    return {name: [value] for name, value in record.items()}


def _to_scalars(attrs: Mapping[str, list[str]]) -> dict[str, str]:
    return {name: values[0] for name, values in attrs.items() if values}


class DeviceFilter(Filter):
    """Adapter between a legacy device and the Update Manager."""

    def __init__(
        self,
        device: Device,
        schema: str,
        name: str | None = None,
        registry=None,
    ):
        super().__init__(name or device.name, schema, registry=registry)
        self.device = device
        self._ddu_handler: DduHandler | None = None
        device.add_listener(self._on_notification)

    # -- notifications ---------------------------------------------------------

    def on_ddu(self, handler: DduHandler) -> None:
        """Register the Update Manager's DDU callback."""
        self._ddu_handler = handler

    def _on_notification(self, notification) -> None:
        if notification.agent == UM_AGENT:
            return  # our own propagated write coming back to us
        if self._ddu_handler is None:
            return  # running without MetaComm — the paper's requirement
        self._count("ddus")
        op = {
            "add": UpdateOp.ADD,
            "modify": UpdateOp.MODIFY,
            "delete": UpdateOp.DELETE,
        }[notification.op]
        descriptor = UpdateDescriptor(
            op=op,
            source=self.schema,
            key=notification.key,
            old=_to_lists(notification.before) if notification.before else None,
            new=_to_lists(notification.after) if notification.after else None,
            explicit=frozenset(
                self._explicit_attrs(notification.before, notification.after)
            ),
            origin=self.name,
        )
        self._ddu_handler(self, descriptor)

    @staticmethod
    def _explicit_attrs(before, after) -> set[str]:
        before = before or {}
        after = after or {}
        names = set(before) | set(after)
        return {
            n.lower() for n in names if before.get(n) != after.get(n)
        }

    # -- unified API -------------------------------------------------------------

    def fetch(self, key: str) -> dict[str, list[str]] | None:
        try:
            return _to_lists(self.device.get(key))
        except NoSuchRecordError:
            return None

    def dump(self) -> list[dict[str, str]]:
        """Every record as the device stores it (field → ``str``: a device
        coerces every field it commits), each a fresh copy the caller
        may keep.  The auditor's comparison lower-keys and list-wraps a
        record only when a rule has to run on it."""
        return self.device.dump()

    # -- applying updates -----------------------------------------------------------

    def apply(self, update: TargetUpdate) -> ApplyResult:
        with self._apply_timer():
            try:
                return self._track(self._apply(update), update)
            except DeviceError as exc:
                self._count("failed")
                raise FilterError(self.name, str(exc)) from exc

    def submit(self, update: TargetUpdate) -> "Future[ApplyResult]":
        """Queue ``update`` on the device's pipelined link; returns a Future.

        The non-blocking sibling of :meth:`apply` for callers that overlap
        device round-trips (the event-driven fan-out stage).  The Future
        resolves to the same :class:`ApplyResult` — or raises the same
        :class:`FilterError` — that a blocking :meth:`apply` would have
        produced.  Requires a link attached to the device."""
        link = self.device.link
        if link is None:
            raise FilterError(self.name, "no device link attached")
        return link.submit(
            lambda: self.apply(update),
            op=update.action.value,
            key=str(update.key),
        )

    def _apply(self, update: TargetUpdate) -> ApplyResult:
        action = update.action
        if action is TargetAction.SKIP:
            return ApplyResult(self.name, action, applied=False)
        if action is TargetAction.ADD:
            return self._apply_add(update)
        if action is TargetAction.MODIFY:
            return self._apply_modify(update)
        if action is TargetAction.DELETE:
            return self._apply_delete(update)
        raise FilterError(self.name, f"unknown action {action}")

    def _writable(self, attrs: Mapping[str, list[str]]) -> dict[str, str]:
        """Scalars the device will accept (drop generated fields)."""
        out: dict[str, str] = {}
        for name, value in _to_scalars(attrs).items():
            spec = self.device.fields.get(name.lower())
            if spec is None or spec.generated:
                continue
            out[spec.name] = value
        return out

    def _apply_add(self, update: TargetUpdate) -> ApplyResult:
        record = self._writable(update.attributes)
        if update.conditional:
            # Section 5.4: "add operations are reapplied as conditional
            # modify operations" — the record usually already exists.
            if update.key is not None and self.device.contains(update.key):
                self.device.modify(update.key, record, agent=UM_AGENT)
                return ApplyResult(
                    self.name, update.action, applied=True, recovered=True
                )
        committed = self.device.add(record, agent=UM_AGENT)
        return ApplyResult(
            self.name,
            update.action,
            applied=True,
            generated=self._generated(committed),
        )

    def _apply_modify(self, update: TargetUpdate) -> ApplyResult:
        key = update.old_key or update.key
        if key is None:
            raise FilterError(self.name, "modify without a key")
        changes: dict[str, str | None] = dict(self._writable(update.changed))
        for name in update.removed:
            spec = self.device.fields.get(name.lower())
            if spec is not None and not spec.generated:
                changes[spec.name] = None
        if update.key is not None and update.key != key:
            changes[self.device.key_field] = update.key  # re-key (rare)
        if not changes:
            return ApplyResult(self.name, update.action, applied=False)
        try:
            self.device.modify(key, changes, agent=UM_AGENT)
            return ApplyResult(self.name, update.action, applied=True)
        except NoSuchRecordError:
            if not update.conditional:
                raise
            # Conditional recovery: "If a conditional modify fails, the
            # update filters then attempt to add the record."
            committed = self.device.add(
                self._writable(update.attributes), agent=UM_AGENT
            )
            return ApplyResult(
                self.name,
                update.action,
                applied=True,
                recovered=True,
                generated=self._generated(committed),
            )

    def _apply_delete(self, update: TargetUpdate) -> ApplyResult:
        key = update.key or update.old_key
        if key is None:
            raise FilterError(self.name, "delete without a key")
        try:
            self.device.delete(key, agent=UM_AGENT)
            return ApplyResult(self.name, update.action, applied=True)
        except NoSuchRecordError:
            if not update.conditional:
                raise
            return ApplyResult(
                self.name, update.action, applied=False, recovered=True
            )

    # -- compensation (saga-style undo, paper section 4.4 future work) -----------

    def compensate(
        self,
        update: TargetUpdate,
        before: Mapping[str, list[str]] | None,
    ) -> None:
        """Undo a previously applied update using its pre-update image.

        "A later version of the system will use pre-update information to
        attempt to undo device updates, making the overall technique akin
        to sagas."  ADDs are compensated by delete, DELETEs by re-add,
        MODIFYs by restoring every writable field of the before image."""
        key = update.key or update.old_key
        if update.action is TargetAction.ADD:
            if key is not None and self.device.contains(key):
                self.device.delete(key, agent=UM_AGENT)
            return
        if update.action is TargetAction.DELETE:
            if before is not None and (key is None or not self.device.contains(key)):
                self.device.add(self._writable(before), agent=UM_AGENT)
            return
        if update.action is TargetAction.MODIFY and before is not None:
            old = self._writable(before)
            old_key = old.get(self.device.key_field)
            current_key = update.key if update.key is not None else key
            if current_key is None or not self.device.contains(current_key):
                self.device.add(old, agent=UM_AGENT)
                return
            changes: dict[str, str | None] = dict(old)
            current = self.device.get(current_key)
            for name in current:
                spec = self.device.fields.get(name.lower())
                if spec is None or spec.generated:
                    continue
                if name not in old and name != self.device.key_field:
                    changes[name] = None
            if old_key is not None:
                changes[self.device.key_field] = old_key
            self.device.modify(current_key, changes, agent=UM_AGENT)

    def _generated(self, committed: Mapping[str, str]) -> dict[str, list[str]]:
        """Device-generated fields of a freshly committed record (5.5)."""
        out: dict[str, list[str]] = {}
        for name, value in committed.items():
            spec = self.device.fields.get(name.lower())
            if spec is not None and spec.generated:
                out[spec.name] = [value]
        return out
