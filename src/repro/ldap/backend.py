"""The directory information tree (DIT) store.

A thread-safe, in-memory tree of entries keyed by normalized DN.  Every
update operation is atomic with respect to concurrent callers — and *only*
single-entry operations exist, which is precisely the transactional
weakness MetaComm's Update Manager has to design around (paper sections 2
and 5.1).

The backend keeps a changelog of committed updates, each stamped with a
change sequence number (CSN).  The changelog feeds both replication
agreements and post-commit listeners.  It is bounded by its readers: a
fixed tail of :data:`CHANGELOG_TAIL` records, plus whatever a registered
replication agreement has not shipped yet (docs/CONSISTENCY.md).
"""

from __future__ import annotations

import enum
import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Protocol

from .dn import DN, Rdn
from .entry import Attributes, Entry, _norm_value
from .filter import And, Equality, Filter, parse_filter
from .protocol import Modification, Scope
from .result import (
    EntryAlreadyExistsError,
    LdapError,
    NoSuchObjectError,
    NotAllowedOnNonLeafError,
    ResultCode,
)
from .schema import Schema


#: The bucket of a value no indexed entry holds (never mutated).
_EMPTY: frozenset = frozenset()


def _index_values(table: dict[str, set[tuple]], dn_key: tuple, values) -> None:
    for value in values:
        table.setdefault(_norm_value(value), set()).add(dn_key)


def _unindex_values(table: dict[str, set[tuple]], dn_key: tuple, values) -> None:
    for value in values:
        normalized = _norm_value(value)
        bucket = table.get(normalized)
        if bucket is not None:
            bucket.discard(dn_key)
            if not bucket:
                del table[normalized]


class ChangeType(enum.Enum):
    ADD = "add"
    DELETE = "delete"
    MODIFY = "modify"
    MODIFY_RDN = "modifyrdn"


@dataclass(frozen=True)
class Csn:
    """Change sequence number: totally ordered within a server, and across
    servers by (sequence, server_id) — the scheme directory replication
    uses to achieve its relaxed write-write convergence."""

    seq: int
    server_id: str

    def __lt__(self, other: "Csn") -> bool:
        return (self.seq, self.server_id) < (other.seq, other.server_id)


@dataclass(frozen=True)
class ChangeRecord:
    """One committed update, with before/after images for listeners.

    The images are the stored entry objects themselves (the entry the
    update replaced or removed, and the one it stored): entries are
    immutable, so a retained record costs no copy."""

    csn: Csn
    change_type: ChangeType
    dn: DN
    before: Entry | None = None
    after: Entry | None = None
    modifications: tuple[Modification, ...] = ()
    new_rdn: Rdn | None = None
    #: CSN of the originating write when this record was produced by
    #: applying a replicated change; equals :attr:`csn` for local writes.
    origin: Csn | None = None

    @property
    def origin_csn(self) -> Csn:
        return self.origin or self.csn


ChangeListener = Callable[[ChangeRecord], None]

#: Records a changelog retains behind its newest one when no registered
#: reader needs older ones (the changelog's counterpart of the event
#: journal's 1024-event ring).
CHANGELOG_TAIL = 1024


class ChangelogTruncatedError(LookupError):
    """A reader asked for records the changelog no longer retains."""

    def __init__(self, wanted: str, first: int):
        super().__init__(
            f"changelog records {wanted} were dropped; the oldest "
            f"retained record is at position {first}"
        )
        #: Absolute position of the oldest retained record.
        self.first = first


class ChangelogReader(Protocol):
    """Anything that consumes a changelog by absolute position (a
    replication agreement): ``cursor`` is the position of its next record."""

    cursor: int


class Changelog:
    """Committed records, addressed by absolute position.

    Position 0 is the first record the backend ever committed and
    :attr:`end` is one past the newest.  The log keeps the newest
    :data:`CHANGELOG_TAIL` records, and never drops a record a registered
    reader has not consumed yet.  Reads of dropped positions raise
    :class:`ChangelogTruncatedError` rather than skipping records.

    ``len()``, iteration and indexing cover the retained records only.
    Appends run under the owning backend's lock."""

    def __init__(self) -> None:
        self._records: deque[ChangeRecord] = deque()
        self._first = 0
        #: CSN of the newest dropped record (None while nothing was dropped).
        self.dropped_csn: Csn | None = None
        self._readers: list[ChangelogReader] = []

    @property
    def first(self) -> int:
        """Absolute position of the oldest retained record."""
        return self._first

    @property
    def end(self) -> int:
        """Absolute position the next committed record will take."""
        return self._first + len(self._records)

    def register(self, reader: ChangelogReader) -> None:
        self._readers.append(reader)

    def append(self, record: ChangeRecord) -> None:
        self._records.append(record)
        keep_from = self.end - CHANGELOG_TAIL
        for reader in self._readers:
            keep_from = min(keep_from, reader.cursor)
        while self._first < keep_from:
            self.dropped_csn = self._records.popleft().csn
            self._first += 1

    def since(self, position: int) -> list[ChangeRecord]:
        """Every record from absolute *position* on."""
        if position < self._first:
            raise ChangelogTruncatedError(f"from position {position}", self._first)
        return list(itertools.islice(self._records, position - self._first, None))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ChangeRecord]:
        return iter(list(self._records))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records)[index]
        return self._records[index]


class Transaction:
    """A multi-entry atomic batch at a single server.

    The paper's section 5.3 proposes exactly this compromise: "transactions
    that allow several entries at a single site to be modified atomically
    would be a good compromise — solving our atomicity problems while
    retaining scalability although at the cost of asymmetry."  This
    extension implements it: operations buffered on the transaction apply
    all-or-nothing under the backend lock; listeners and the changelog see
    either every record or none.

    Use as a context manager::

        with backend.transaction() as txn:
            txn.modify(parent_dn, [...])
            txn.modify(child_dn, [...])
        # both applied, or neither
    """

    def __init__(self, backend: "Backend"):
        self.backend = backend
        self._ops: list[tuple[str, tuple]] = []
        self.committed = False

    # -- buffered operations ----------------------------------------------

    def add(self, entry: Entry) -> None:
        self._ops.append(("add", (entry,)))

    def delete(self, dn: DN) -> None:
        self._ops.append(("delete", (dn,)))

    def modify(self, dn: DN, modifications: Iterable[Modification]) -> None:
        self._ops.append(("modify", (dn, tuple(modifications))))

    def modify_rdn(self, dn: DN, new_rdn: Rdn, delete_old_rdn: bool = True) -> None:
        self._ops.append(("modify_rdn", (dn, new_rdn, delete_old_rdn)))

    def __len__(self) -> int:
        return len(self._ops)

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> list[ChangeRecord]:
        if self.committed:
            raise RuntimeError("transaction already committed")
        records = self.backend._apply_transaction(self._ops)
        self.committed = True
        return records

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self.committed:
            self.commit()


class Backend:
    """In-memory DIT with atomic single-entry operations and a changelog."""

    def __init__(
        self,
        suffixes: Iterable[DN | str],
        schema: Schema | None = None,
        server_id: str = "srv1",
    ):
        self.suffixes = [DN.parse(s) if isinstance(s, str) else s for s in suffixes]
        if not self.suffixes:
            raise ValueError("a backend needs at least one suffix")
        self.schema = schema
        self.server_id = server_id
        self._entries: dict[tuple, Entry] = {}
        self._children: dict[tuple, set[tuple]] = {}
        self._lock = threading.RLock()
        self._seq = 0
        self.changelog = Changelog()
        self._listeners: list[ChangeListener] = []
        self._txn_buffer: list[ChangeRecord] | None = None
        # Equality indexes: attr (lower) -> normalized value -> set of DN keys.
        self._indexes: dict[str, dict[str, set[tuple]]] = {}

    # -- listeners --------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        self._listeners.remove(listener)

    def _commit(self, record: ChangeRecord) -> None:
        if self._txn_buffer is not None:
            self._txn_buffer.append(record)
            return
        self.changelog.append(record)
        for listener in list(self._listeners):
            listener(record)

    # -- site transactions (section 5.3 extension) ------------------------------

    def transaction(self) -> Transaction:
        """Open a multi-entry atomic batch (see :class:`Transaction`)."""
        return Transaction(self)

    def _apply_transaction(self, ops: list[tuple[str, tuple]]) -> list[ChangeRecord]:
        with self._lock:
            snapshot_entries = dict(self._entries)
            snapshot_children = {k: set(v) for k, v in self._children.items()}
            snapshot_indexes = {
                a: {v: set(keys) for v, keys in t.items()}
                for a, t in self._indexes.items()
            }
            snapshot_seq = self._seq
            self._txn_buffer: list[ChangeRecord] | None = []
            try:
                for op, args in ops:
                    getattr(self, op)(*args)
            except Exception:
                self._entries = snapshot_entries
                self._children = snapshot_children
                self._indexes = snapshot_indexes
                self._seq = snapshot_seq
                raise
            finally:
                records, self._txn_buffer = self._txn_buffer or [], None
            for record in records:
                self.changelog.append(record)
                for listener in list(self._listeners):
                    listener(record)
            return records

    def _next_csn(self) -> Csn:
        self._seq += 1
        return Csn(self._seq, self.server_id)

    # -- attribute indexes ----------------------------------------------------

    def create_index(self, attribute: str) -> None:
        """Maintain an equality index on *attribute*.

        Equality searches (including inside AND filters) then resolve via
        the index instead of scanning the tree — the entry-location hot
        path of the Update Manager."""
        key = attribute.lower()
        with self._lock:
            if key in self._indexes:
                return
            table: dict[str, set[tuple]] = {}
            for dn_key, entry in self._entries.items():
                _index_values(table, dn_key, entry.attributes.lowered().get(key, ()))
            self._indexes[key] = table

    def indexed_attributes(self) -> list[str]:
        with self._lock:
            return sorted(self._indexes)

    def _reindex(self, dn_key: tuple, before: Mapping, after: Mapping) -> None:
        """Move *dn_key* from the values of the stored attribute map
        *before* to those of *after*, in every index whose attribute's
        value tuple is not the same object in both: :meth:`Attributes.modified`
        shares every tuple it leaves alone.  Caller holds ``_lock``."""
        for attribute, table in self._indexes.items():
            old_values = before.get(attribute, ())
            new_values = after.get(attribute, ())
            if old_values is not new_values:
                _unindex_values(table, dn_key, old_values)
                _index_values(table, dn_key, new_values)

    def _store(self, entry: Entry) -> None:
        """Insert or replace an entry, keeping indexes current.

        Caller holds ``_lock``."""
        dn_key = entry.dn.normalized()
        old = self._entries.get(dn_key)
        self._entries[dn_key] = entry
        self._reindex(
            dn_key,
            old.attributes.lowered() if old is not None else {},
            entry.attributes.lowered(),
        )

    def _unstore(self, dn_key: tuple) -> Entry | None:
        """Caller holds ``_lock``."""
        old = self._entries.pop(dn_key, None)
        if old is not None:
            self._reindex(dn_key, old.attributes.lowered(), {})
        return old

    def _index_candidates(
        self, compiled: Filter
    ) -> set[tuple] | frozenset[tuple] | None:
        """DN keys matching an indexed Equality inside *compiled*, or None
        when the filter cannot use an index.

        The set returned is the index's own bucket, not a copy: the
        caller holds ``_lock`` while it reads it and never mutates it."""
        probes: tuple[Filter, ...] = ()
        if isinstance(compiled, Equality):
            probes = (compiled,)
        elif isinstance(compiled, And):
            probes = compiled.parts
        best: set[tuple] | frozenset[tuple] | None = None
        for probe in probes:
            if not isinstance(probe, Equality):
                continue
            table = self._indexes.get(probe.key)
            if table is None:
                continue
            bucket = table.get(probe.norm, _EMPTY)
            # Most selective indexed probe wins (a room bucket holds a
            # dozen entries; a key attribute holds one).
            if best is None or len(bucket) < len(best):
                best = bucket
        return best

    # -- structure helpers --------------------------------------------------

    def _is_suffix(self, dn: DN) -> bool:
        return any(dn == suffix for suffix in self.suffixes)

    def _within_namespace(self, dn: DN) -> bool:
        return any(dn.is_under(suffix) for suffix in self.suffixes)

    def _require(self, dn: DN) -> Entry:
        """Caller holds ``_lock``."""
        entry = self._entries.get(dn.normalized())
        if entry is None:
            matched = self._deepest_match(dn)
            raise NoSuchObjectError(f"no such entry: {dn}", matched_dn=str(matched))
        return entry

    def _deepest_match(self, dn: DN) -> DN:
        """Caller holds ``_lock``."""
        current = dn
        while not current.is_root():
            current = current.parent()
            if current.normalized() in self._entries:
                return current
        return DN.root()

    def size(self) -> int:
        with self._lock:
            return len(self._entries)

    def contains(self, dn: DN) -> bool:
        with self._lock:
            return dn.normalized() in self._entries

    def get(self, dn: DN) -> Entry:
        """Return the (immutable) entry stored at *dn*; raises when absent."""
        with self._lock:
            return self._require(dn)

    # -- update operations ---------------------------------------------------

    def add(self, entry: Entry, origin: Csn | None = None) -> ChangeRecord:
        # Real servers insert missing RDN attributes; we do the same.
        missing = self._rdn_additions(entry.attributes, entry.dn.rdn)
        if missing:
            entry = Entry(entry.dn, entry.attributes.modified(missing))
        if self.schema is not None:
            self.schema.check_entry(entry)
        with self._lock:
            key = entry.dn.normalized()
            if key in self._entries:
                raise EntryAlreadyExistsError(f"entry exists: {entry.dn}")
            if not self._within_namespace(entry.dn):
                raise LdapError(
                    ResultCode.UNWILLING_TO_PERFORM,
                    f"{entry.dn} is outside the server's suffixes",
                )
            if not self._is_suffix(entry.dn):
                parent_key = entry.dn.parent().normalized()
                if parent_key not in self._entries:
                    raise NoSuchObjectError(
                        f"parent of {entry.dn} does not exist",
                        matched_dn=str(self._deepest_match(entry.dn)),
                    )
                self._children.setdefault(parent_key, set()).add(key)
            self._store(entry)
            record = ChangeRecord(
                self._next_csn(), ChangeType.ADD, entry.dn, None, entry,
                origin=origin,
            )
            self._commit(record)
            return record

    def delete(self, dn: DN, origin: Csn | None = None) -> ChangeRecord:
        with self._lock:
            entry = self._require(dn)
            key = dn.normalized()
            if self._children.get(key):
                raise NotAllowedOnNonLeafError(f"{dn} has children")
            self._unstore(key)
            self._children.pop(key, None)
            if not self._is_suffix(dn):
                parent_key = dn.parent().normalized()
                siblings = self._children.get(parent_key)
                if siblings is not None:
                    siblings.discard(key)
                    if not siblings:
                        del self._children[parent_key]
            record = ChangeRecord(
                self._next_csn(), ChangeType.DELETE, dn, entry, None,
                origin=origin,
            )
            self._commit(record)
            return record

    def modify(
        self,
        dn: DN,
        modifications: Iterable[Modification],
        origin: Csn | None = None,
    ) -> ChangeRecord:
        modifications = tuple(modifications)
        with self._lock:
            entry = self._require(dn)
            updated = Entry(entry.dn, entry.attributes.modified(modifications))
            if self.schema is not None:
                self.schema.check_entry(updated)
            if not updated.rdn_consistent():
                raise LdapError(
                    ResultCode.NOT_ALLOWED_ON_RDN,
                    f"modification would remove an RDN value of {dn}",
                )
            self._store(updated)
            record = ChangeRecord(
                self._next_csn(),
                ChangeType.MODIFY,
                dn,
                entry,
                updated,
                modifications,
                origin=origin,
            )
            self._commit(record)
            return record

    @staticmethod
    def _rdn_additions(attributes: Attributes, rdn: Rdn) -> list[Modification]:
        """ADDs of the RDN values *attributes* lacks."""
        return [
            Modification.add(attr, value)
            for attr, value in rdn.items()
            if not attributes.has_value(attr, value)
        ]

    def modify_rdn(
        self,
        dn: DN,
        new_rdn: Rdn,
        delete_old_rdn: bool = True,
        origin: Csn | None = None,
    ) -> ChangeRecord:
        """Rename an entry in place (LDAP ModifyRDN).

        Descendants are re-keyed under the new DN, as real servers do for a
        rename without a newSuperior.
        """
        with self._lock:
            entry = self._require(dn)
            if self._is_suffix(dn):
                raise LdapError(
                    ResultCode.UNWILLING_TO_PERFORM, "cannot rename a suffix entry"
                )
            new_dn = dn.parent().child(new_rdn)
            new_key = new_dn.normalized()
            old_key = dn.normalized()
            if new_key != old_key and new_key in self._entries:
                raise EntryAlreadyExistsError(f"entry exists: {new_dn}")

            kept = {(attr.lower(), value) for attr, value in new_rdn.items()}
            attributes = entry.attributes
            if delete_old_rdn:
                attributes = attributes.modified(
                    Modification.delete(attr, value)
                    for attr, value in dn.rdn.items()
                    if (attr.lower(), value) not in kept
                    and attributes.has_value(attr, value)
                )
            renamed = Entry(
                new_dn,
                attributes.modified(self._rdn_additions(attributes, new_rdn)),
            )
            if self.schema is not None:
                self.schema.check_entry(renamed)

            # Re-key the subtree below the renamed entry, walked through
            # the child sets; the descendants keep their Attributes.
            remap = {old_key: new_key}
            moved = [renamed]
            below = list(self._children.get(old_key, ()))
            while below:
                desc_key = below.pop()
                desc = self._entries[desc_key]
                depth = len(desc.dn.rdns) - len(dn.rdns)
                rebased = DN(desc.dn.rdns[:depth] + new_dn.rdns)
                remap[desc_key] = rebased.normalized()
                moved.append(Entry(rebased, desc.attributes))
                below.extend(self._children.get(desc_key, ()))
            for key in remap:
                self._unstore(key)
            for stored in moved:
                self._store(stored)
            rekeyed = {}
            for key, new in remap.items():
                child_set = self._children.pop(key, None)
                if child_set is not None:
                    rekeyed[new] = {remap.get(c, c) for c in child_set}
            self._children.update(rekeyed)
            siblings = self._children[dn.parent().normalized()]
            siblings.discard(old_key)
            siblings.add(new_key)

            record = ChangeRecord(
                self._next_csn(),
                ChangeType.MODIFY_RDN,
                dn,
                entry,
                renamed,
                (),
                new_rdn,
                origin=origin,
            )
            self._commit(record)
            return record

    # -- read operations ------------------------------------------------------

    def search(
        self,
        base: DN,
        scope: Scope = Scope.SUB,
        filter: Filter | str = "(objectClass=*)",
        attributes: Iterable[str] = (),
        size_limit: int = 0,
    ) -> list[Entry]:
        """Entries in scope that match *filter*, in DN-key order.

        The plan: BASE and ONE scopes test their one entry or the base's
        children.  A SUB search with an indexed Equality starts from the
        smallest such bucket; when the filter is that Equality alone, the
        bucket is the answer, since the index keys values by the same
        ``_norm_value`` the filter compares with.  Any other SUB search
        scans the tree."""
        compiled = parse_filter(filter)
        selected = tuple(attributes)
        with self._lock:
            base_entry = self._require(base)
            check: Callable[[Entry], bool] | None = compiled.matches
            if scope is Scope.BASE:
                candidates: Iterable[Entry] = (base_entry,)
            elif scope is Scope.ONE:
                child_keys = self._children.get(base.normalized(), _EMPTY)
                candidates = [self._entries[k] for k in sorted(child_keys)]
            else:
                bucket = self._index_candidates(compiled)
                if bucket is None:
                    candidates = (
                        e
                        for k, e in sorted(self._entries.items())
                        if e.dn.is_under(base)
                    )
                else:
                    entries = self._entries
                    candidates = [
                        entries[k]
                        for k in (sorted(bucket) if len(bucket) > 1 else bucket)
                        if entries[k].dn.is_under(base)
                    ]
                    if type(compiled) is Equality:
                        check = None
            results: list[Entry] = []
            for entry in candidates:
                if check is not None and not check(entry):
                    continue
                results.append(self._project(entry, selected))
                if size_limit and len(results) > size_limit:
                    raise LdapError(
                        ResultCode.SIZE_LIMIT_EXCEEDED,
                        f"more than {size_limit} entries match",
                    )
            return results

    @staticmethod
    def _project(entry: Entry, attributes: tuple[str, ...]) -> Entry:
        if not attributes or "*" in attributes:
            return entry
        return Entry(entry.dn, entry.attributes.select(attributes))

    def compare(self, dn: DN, attribute: str, value: str) -> bool:
        with self._lock:
            entry = self._require(dn)
            return entry.attributes.has_value(attribute, value)

    def all_entries(self) -> list[Entry]:
        with self._lock:
            return [e for _, e in sorted(self._entries.items())]

    def changes_since(self, csn: Csn | None) -> list[ChangeRecord]:
        """Records committed after *csn* (every record when None); raises
        :class:`ChangelogTruncatedError` when some were already dropped."""
        with self._lock:
            log = self.changelog
            dropped = log.dropped_csn
            if dropped is not None and (csn is None or csn < dropped):
                wanted = "from the start" if csn is None else f"after {csn}"
                raise ChangelogTruncatedError(wanted, log.first)
            if csn is None:
                return list(log)
            return [r for r in log if csn < r.csn]
