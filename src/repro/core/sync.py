"""Synchronization of pre-existing directories and devices.

Section 4.4: "The UM also supports the synchronization of preexisting
directories.  This is necessary to populate the directory initially and to
recover from disconnected operations of devices without logging
facilities."  Section 5.1 adds the two LTAP extensions that make it safe:
persistent connections (a sync is a *sequence* of updates on one
connection) and the quiesce facility (no other updates may interleave).

Two directions are provided:

* :meth:`Synchronizer.synchronize` — the device is authoritative: its
  records are pushed into the directory through the normal UM pipeline
  (so other devices sharing the data converge too), and directory entries
  claiming device data the device no longer has are cleaned up.
* :meth:`Synchronizer.push_directory` — the directory is authoritative:
  device records are created/updated/deleted to match the directory
  (initial provisioning of a fresh device).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ldap.protocol import Session
from ..lexpress.descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
)
from ..obs.events import SYNC_PROGRESS
from .filters.base import FilterError
from .update_manager import DeviceBinding, UpdateManager

#: One ``sync.progress`` batch event per this many examined records.
PROGRESS_EVERY = 25


@dataclass
class SyncReport:
    """Outcome of one synchronization run."""

    device: str
    direction: str
    examined: int = 0
    added: int = 0
    modified: int = 0
    deleted: int = 0
    skipped: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def applied(self) -> int:
        return self.added + self.modified + self.deleted

    def __str__(self) -> str:
        return (
            f"sync({self.device}, {self.direction}): examined={self.examined} "
            f"added={self.added} modified={self.modified} deleted={self.deleted} "
            f"skipped={self.skipped} errors={len(self.errors)}"
        )


def _held(values, stored: tuple[str, ...]) -> bool:
    """Is every value of a device image's attribute among the entry's
    stored values of it?"""
    return all(value in stored for value in values)


class Synchronizer:
    """Drives full-device synchronization through the UM pipeline."""

    def __init__(self, um: UpdateManager):
        self.um = um

    def _progress(self, report: SyncReport, phase: str) -> None:
        """One ``sync.progress`` journal event."""
        self.um.journal.emit(
            SYNC_PROGRESS,
            device=report.device,
            direction=report.direction,
            phase=phase,
            examined=report.examined,
            applied=report.applied,
            skipped=report.skipped,
            errors=len(report.errors),
        )

    def _batch_progress(self, report: SyncReport) -> None:
        if report.examined and report.examined % PROGRESS_EVERY == 0:
            self._progress(report, "batch")

    # -- device-authoritative ---------------------------------------------------

    def synchronize(self, device_name: str) -> SyncReport:
        """Make the directory (and the other devices) agree with one device."""
        binding = self.um.binding(device_name)
        report = SyncReport(device_name, "from-device")
        session = Session()
        self._progress(report, "start")
        with self.um.gateway.quiesce(session):
            with self.um.connections.open(persistent=True) as connection:
                device_keys = self._sync_records_in(binding, report, session, connection)
                self._cleanup_directory(binding, device_keys, report, session, connection)
        self._progress(report, "end")
        return report

    def _sync_records_in(
        self, binding: DeviceBinding, report: SyncReport, session: Session, connection
    ) -> set[str]:
        """Push every device record through the pipeline; returns the set of
        LDAP key values the device accounts for."""
        seen: set[str] = set()
        for record in binding.filter.dump():
            report.examined += 1
            self._batch_progress(report)
            image = binding.to_ldap.image(record) or {}
            ldap_key = binding.to_ldap.key_of(image)
            if ldap_key is not None:
                seen.add(ldap_key.lower())
            key_attr = binding.to_ldap.key_target
            entry = (
                self.um.ldap_filter.locate(key_attr, ldap_key)
                if key_attr and ldap_key
                else None
            )
            if entry is None:
                descriptor = UpdateDescriptor(
                    UpdateOp.ADD, binding.to_ldap.source,
                    self._device_key(binding, record), new=record,
                )
                self._forward(binding, descriptor, report, session, connection)
                continue
            # Compare the device's desired LDAP image against the live
            # entry — translate()'s own diff would recompute derived
            # attributes from the entry and mask gaps in the directory.
            # The rule is the consistency oracle's (MetaComm._compare):
            # the image's values must be among the entry's, which may
            # hold more (an RDN disambiguator on cn, say).
            stored = entry.attributes.lowered()
            diff = {
                name: values
                for name, values in image.items()
                if name.lower() != "lastupdater"
                and not _held(values, stored.get(name.lower(), ()))
            }
            if not diff:
                report.skipped += 1
                continue
            update = TargetUpdate(
                action=TargetAction.MODIFY,
                target="ldap",
                key=ldap_key,
                old_key=ldap_key,
                key_attribute=key_attr,
                attributes=image,
                old_attributes=entry.attributes.to_dict(),
                changed=diff,
                mapping=binding.to_ldap.name,
            )
            self._forward_update(binding, update, report, session, connection)
        return seen

    def _cleanup_directory(
        self,
        binding: DeviceBinding,
        device_keys: set[str],
        report: SyncReport,
        session: Session,
        connection,
    ) -> None:
        """Strip device data from entries the device no longer knows.

        Only entries inside the binding's partition are this device's to
        clean up: on a partitioned fleet the other PBXes' stations are
        absent from this device by design."""
        key_attr = binding.to_ldap.key_target
        if key_attr is None:
            return
        for entry in self.um.ldap_filter.person_entries():
            values = entry.get(key_attr)
            if not values:
                continue
            if values[0].lower() in device_keys:
                continue
            old_device = binding.from_ldap.image(entry.attributes.to_dict()) or {}
            if old_device and not binding.from_ldap.claims(
                old_device, binding.partition
            ):
                continue  # another device's data (e.g. a different PBX prefix)
            report.examined += 1
            if not old_device:
                report.skipped += 1
                continue
            descriptor = UpdateDescriptor(
                UpdateOp.DELETE, binding.to_ldap.source,
                self._device_key(binding, old_device), old=old_device,
            )
            self._forward(binding, descriptor, report, session, connection)

    def _forward(
        self,
        binding: DeviceBinding,
        descriptor: UpdateDescriptor,
        report: SyncReport,
        session: Session,
        connection,
    ) -> None:
        update = binding.to_ldap.translate(descriptor)
        if update is None or update.action is TargetAction.SKIP:
            report.skipped += 1
            return
        self._forward_update(binding, update, report, session, connection)

    def _forward_update(
        self,
        binding: DeviceBinding,
        update: TargetUpdate,
        report: SyncReport,
        session: Session,
        connection,
    ) -> None:
        try:
            self.um.ldap_filter.forward_ddu(
                update, origin=binding.name, session=session
            )
            connection.send(update)
        except FilterError as exc:
            report.errors.append(str(exc))
            self.um.error_log.record(
                target="ldap", message=str(exc),
                context=f"sync from {binding.name}",
            )
            return
        if update.action is TargetAction.ADD:
            report.added += 1
        elif update.action is TargetAction.MODIFY:
            report.modified += 1
        else:
            report.deleted += 1

    # -- directory-authoritative ----------------------------------------------------

    def push_directory(self, device_name: str) -> SyncReport:
        """Provision a device from the directory's materialized view."""
        binding = self.um.binding(device_name)
        report = SyncReport(device_name, "to-device")
        directory_keys: set[str] = set()
        self._progress(report, "start")
        for entry in self.um.ldap_filter.person_entries():
            report.examined += 1
            self._batch_progress(report)
            attrs = entry.attributes.to_dict()
            descriptor = UpdateDescriptor(
                UpdateOp.ADD, "ldap", str(entry.dn), new=attrs
            )
            # Reuse the pipeline's planning stage: translate + partition
            # routing + before-image capture in one place.
            plan = self.um.pipeline.plan_device_update(binding, descriptor)
            if plan is None or plan.update.key is None:
                report.skipped += 1
                continue
            update = plan.update
            directory_keys.add(update.key)
            existing = plan.before
            try:
                if existing is None:
                    binding.filter.apply(update)
                    report.added += 1
                else:
                    current = {n: v[0] for n, v in existing.items() if v}
                    desired = {n: v[0] for n, v in update.attributes.items() if v}
                    changed = {
                        n: [v] for n, v in desired.items()
                        if current.get(n) != v
                        and not self._generated_field(binding, n)
                    }
                    if not changed:
                        report.skipped += 1
                        continue
                    from dataclasses import replace as _replace

                    binding.filter.apply(
                        _replace(
                            update,
                            action=TargetAction.MODIFY,
                            old_key=update.key,
                            changed=changed,
                        )
                    )
                    report.modified += 1
            except FilterError as exc:
                report.errors.append(str(exc))
                self.um.error_log.record(
                    target=binding.name, message=str(exc), context="push_directory"
                )
        # Remove device records the directory does not sanction.
        for key in binding.filter.device.keys():
            if key not in directory_keys:
                try:
                    binding.filter.device.delete(key, agent="metacomm-um")
                    report.deleted += 1
                except Exception as exc:  # pragma: no cover - defensive
                    report.errors.append(str(exc))
        self._progress(report, "end")
        return report

    # -- helpers -------------------------------------------------------------------------

    @staticmethod
    def _device_key(binding: DeviceBinding, record: dict) -> str | None:
        key_field = binding.to_ldap.key_source
        if key_field is None:
            return None
        for name, values in record.items():
            if name.lower() == key_field.lower():
                if isinstance(values, list):
                    return str(values[0]) if values else None
                return str(values)
        return None

    @staticmethod
    def _generated_field(binding: DeviceBinding, name: str) -> bool:
        spec = binding.filter.device.fields.get(name.lower())
        return spec is not None and spec.generated
