"""Multi-master LDAP replication.

The paper (section 2) notes that "LDAP servers make extensive use of
replication to make directory information highly available" and that
directories provide a *relaxed write-write consistency*: every copy of an
object eventually holds the same attribute values.  This module implements
that model:

* each server's backend changelog is shipped to its peers;
* loop suppression uses origin CSNs (a change is applied at most once per
  server, no matter how many paths it travels);
* write-write conflicts are resolved last-writer-wins *per attribute*
  using the origin CSN order, which is total (sequence, server id);
* structural conflicts degrade gracefully: a replicated add over an
  existing entry becomes an attribute-level merge, a modify/delete of a
  missing entry is skipped.

The engine is pull-based: :meth:`ReplicationEngine.propagate` drains all
pending changes until the topology reaches a fixpoint, which makes tests
and benchmarks deterministic (no background threads).
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import ChangeRecord, ChangeType, Csn
from .entry import Entry
from .protocol import ModOp, Modification
from .result import LdapError, ResultCode
from .server import LdapServer


@dataclass
class ReplicationAgreement:
    """A one-way supplier→consumer shipping lane."""

    supplier: LdapServer
    consumer: LdapServer
    #: Absolute changelog position of the next record to ship; the
    #: supplier's changelog keeps every record from here on.
    cursor: int = 0


class ReplicationEngine:
    """Coordinates a set of agreements into an (eventually) convergent mesh."""

    def __init__(self) -> None:
        self.agreements: list[ReplicationAgreement] = []
        # server_id -> set of origin CSNs that server has already applied.
        self._applied: dict[str, set[Csn]] = {}
        # server_id -> (dn_norm, attr_lower) -> origin CSN of last write.
        self._attr_csn: dict[str, dict[tuple, Csn]] = {}
        self._servers: dict[str, LdapServer] = {}
        self.statistics = {"shipped": 0, "skipped": 0, "merged": 0}

    # -- topology -----------------------------------------------------------

    def connect(self, supplier: LdapServer, consumer: LdapServer) -> None:
        """Add a one-way agreement.  Call twice for a multi-master pair."""
        self._register(supplier)
        self._register(consumer)
        agreement = ReplicationAgreement(supplier, consumer)
        supplier.backend.changelog.register(agreement)
        self.agreements.append(agreement)

    def connect_mesh(self, servers: list[LdapServer]) -> None:
        """Fully connect *servers* as multi-masters."""
        for supplier in servers:
            for consumer in servers:
                if supplier is not consumer:
                    self.connect(supplier, consumer)

    def _register(self, server: LdapServer) -> None:
        if server.server_id in self._servers:
            if self._servers[server.server_id] is not server:
                raise ValueError(f"duplicate server_id {server.server_id!r}")
            return
        self._servers[server.server_id] = server
        self._applied[server.server_id] = set()
        self._attr_csn[server.server_id] = {}
        server.backend.add_listener(
            lambda record, sid=server.server_id: self._observe(sid, record)
        )
        # Account for history that predates registration.
        for record in server.backend.changelog:
            self._observe(server.server_id, record)

    def _observe(self, server_id: str, record: ChangeRecord) -> None:
        """Track local writes so conflict resolution can order them."""
        self._applied[server_id].add(record.origin_csn)
        table = self._attr_csn[server_id]
        origin = record.origin_csn
        if record.change_type is ChangeType.MODIFY:
            for mod in record.modifications:
                table[(record.dn.normalized(), mod.attribute.lower())] = origin
        elif record.after is not None:
            for name in record.after.attributes.names():
                table[(record.after.dn.normalized(), name.lower())] = origin

    # -- propagation ----------------------------------------------------------

    def propagate(self, max_rounds: int = 100) -> int:
        """Ship pending changes until nothing moves.  Returns changes shipped."""
        total = 0
        for _ in range(max_rounds):
            moved = 0
            for agreement in self.agreements:
                moved += self._drain(agreement)
            total += moved
            if not moved:
                return total
        raise RuntimeError("replication did not reach a fixpoint")

    def _drain(self, agreement: ReplicationAgreement) -> int:
        """Ship the supplier's records past the cursor; raises
        :class:`~repro.ldap.backend.ChangelogTruncatedError` when the
        supplier no longer holds them (history older than its retained
        tail when the agreement was made)."""
        shipped = 0
        for record in agreement.supplier.backend.changelog.since(agreement.cursor):
            agreement.cursor += 1
            if self._apply(agreement.consumer, record):
                shipped += 1
        return shipped

    def _apply(self, consumer: LdapServer, record: ChangeRecord) -> bool:
        origin = record.origin_csn
        applied = self._applied[consumer.server_id]
        if origin in applied:
            self.statistics["skipped"] += 1
            return False
        applied.add(origin)
        backend = consumer.backend
        try:
            if record.change_type is ChangeType.ADD:
                assert record.after is not None
                try:
                    backend.add(record.after, origin=origin)
                except LdapError as exc:
                    if exc.code is not ResultCode.ENTRY_ALREADY_EXISTS:
                        raise
                    self._merge_add(consumer, record.after, origin)
            elif record.change_type is ChangeType.DELETE:
                backend.delete(record.dn, origin=origin)
            elif record.change_type is ChangeType.MODIFY:
                mods = self._filter_stale(consumer, record)
                if not mods:
                    self.statistics["skipped"] += 1
                    return False
                backend.modify(record.dn, mods, origin=origin)
            elif record.change_type is ChangeType.MODIFY_RDN:
                assert record.new_rdn is not None
                backend.modify_rdn(record.dn, record.new_rdn, origin=origin)
            self.statistics["shipped"] += 1
            return True
        except LdapError as exc:
            # Structural conflicts (entry vanished, parent missing, ...) are
            # tolerated: the next full synchronization repairs them, exactly
            # as MetaComm's resynchronization path does for devices.
            if exc.code in (
                ResultCode.NO_SUCH_OBJECT,
                ResultCode.NOT_ALLOWED_ON_NON_LEAF,
                ResultCode.ATTRIBUTE_OR_VALUE_EXISTS,
                ResultCode.UNDEFINED_ATTRIBUTE_TYPE,
                ResultCode.ENTRY_ALREADY_EXISTS,
            ):
                self.statistics["skipped"] += 1
                return False
            raise

    def _filter_stale(
        self, consumer: LdapServer, record: ChangeRecord
    ) -> list[Modification]:
        """Drop REPLACE mods that lost to a newer write at the consumer."""
        table = self._attr_csn[consumer.server_id]
        origin = record.origin_csn
        kept: list[Modification] = []
        for mod in record.modifications:
            if mod.op is ModOp.REPLACE:
                last = table.get((record.dn.normalized(), mod.attribute.lower()))
                if last is not None and origin < last:
                    self.statistics["merged"] += 1
                    continue
            kept.append(mod)
        return kept

    def _merge_add(self, consumer: LdapServer, incoming: Entry, origin: Csn) -> None:
        """Attribute-level merge when both masters added the same entry."""
        table = self._attr_csn[consumer.server_id]
        mods: list[Modification] = []
        for name, values in incoming.attributes.items():
            last = table.get((incoming.dn.normalized(), name.lower()))
            if last is not None and origin < last:
                continue
            mods.append(Modification.replace(name, *values))
        if mods:
            consumer.backend.modify(incoming.dn, mods, origin=origin)
            self.statistics["merged"] += 1

    # -- verification -----------------------------------------------------------

    def converged(self) -> bool:
        """True when every server holds identical entry sets."""
        snapshots = []
        for server in self._servers.values():
            snapshot = {
                str(e.dn).lower(): e.attributes.normalized()
                for e in server.backend.all_entries()
            }
            snapshots.append(snapshot)
        return all(s == snapshots[0] for s in snapshots[1:])
