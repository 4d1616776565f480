"""Background consistency auditing and staleness gauges.

``MetaComm.consistent()`` is the E1 oracle — but until now it only ran
inside tests, after the system quiesced.  The auditor turns drift
detection into a *runtime* signal, in the spirit of "Directory
Reconciliation" (Mitzenmacher & Morgan): a low-rate sampler that probes
one device binding's slice per cycle (round-robin) against live state,
**without quiescing** — updates keep flowing while the probe walks the
device dump and the directory's materialized view.

A probe reads the device dump in full (a real switch keeps no digests,
and the dump is what exposes surgery behind MetaComm's back), but keeps
the directory side as a :class:`DirectoryView` that a backend change
listener keeps current: each commit only notes its DN, and the next probe
reads each noted entry once and files it in the view.  The view holds
the entries themselves, and remembers, per binding, the device records
the last probe found consistent and the entries they matched; a record
that is unchanged and still locates the same entry is not imaged again.
So a probe costs the dump, one image per changed record and one check
per changed entry, not a walk of the whole directory.
``MetaComm.consistent()`` stays a fresh full walk over the same
comparison code.

Because the system stays live, a probe can race an in-flight update
sequence and see a transient disagreement (device committed, supplemental
write not yet landed).  That is by design: the sampler reports what it
saw, and the alert layer's ``for N`` sustain absorbs one-cycle blips —
persistent drift (a lost notification, a failed compensation, operator
surgery on the device) keeps reappearing and fires.

Each cycle also refreshes the staleness gauges that the ROADMAP's
no-quiesce sync work will report through: global-queue depth and
oldest-unclaimed-update age, per-device last-applied serial lag, and the
device-health percentile gauges.  Finally the cycle hands control to the
alert engine, so rule evaluation rides the same low-rate clock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..ldap.backend import ChangeRecord, ChangeType
from ..ldap.dn import DN
from ..ldap.entry import Entry, _norm_value
from ..ldap.filter import parse_filter
from ..ldap.result import NoSuchObjectError
from .events import AUDIT_CYCLE, AUDIT_MISMATCH

__all__ = ["AuditReport", "ConsistencyAuditor", "DirectoryView"]

#: How many problem strings an ``audit.mismatch`` journal event carries.
_DETAIL_LIMIT = 3

#: The directory entries a device may be asked to hold (the filter of
#: ``LdapFilter.person_entries``).
_PERSON = parse_filter("(objectClass=person)")


def _binding_parts(bindings: Sequence) -> list:
    """What a view depends on of the bindings."""
    return [
        part
        for b in bindings
        for part in (b, b.filter, b.to_ldap, b.from_ldap, b.partition)
    ]


class _ChangeSet:
    """The DNs committed since the last probe, noted by a backend change
    listener.  Both methods run under the backend's lock: the backend
    calls listeners under it and the probe takes it to swap the sets."""

    def __init__(self) -> None:
        #: The view must be rebuilt; nothing is noted meanwhile.
        self.stale = True
        self.limit = 0
        self.dirty: set[DN] = set()
        #: Old DNs of renamed entries.
        self.renamed: set[DN] = set()

    def note(self, record: ChangeRecord) -> None:
        if self.stale:
            return
        self.dirty.add(record.dn)
        if record.after is not None:
            self.dirty.add(record.after.dn)
        if record.change_type is ChangeType.MODIFY_RDN:
            self.renamed.add(record.dn)
        if len(self.dirty) > self.limit:
            # More changed DNs than entries: a rebuild costs no more, and
            # the set stays bounded by the directory size.
            self.stale = True
            self.dirty, self.renamed = set(), set()

    def take(self, limit: int) -> tuple[bool, set[DN], set[DN]]:
        """Swap out (stale, dirty, renamed); at most *limit* DNs are
        noted before the next take."""
        taken = (self.stale, self.dirty, self.renamed)
        self.stale, self.dirty, self.renamed = False, set(), set()
        self.limit = limit
        return taken


class DirectoryView:
    """The directory side of the device↔directory comparison.

    It holds, for the entries under ``base``:

    * the entries themselves, by DN key — the objects the backend stores
      (entries are immutable), so a located entry costs no backend read;
    * key attribute → normalized value → DN keys, which stands in for the
      ``locate()`` search of every device record (the smallest DN key
      wins, as in the search's sorted result);
    * per binding, the person entries that carry the binding's key
      attribute and whose ``from_ldap`` image claims the binding's
      partition — the entries the device must hold — each with its key
      value lower-cased;
    * per binding, the memo of the pairs its last comparison verified
      (:meth:`verified`, :meth:`remember`), which lives and dies with
      the view.

    The index and the claims are functions of one entry's DN and
    attributes alone, so :meth:`put` re-images a changed entry by itself,
    from the lower-keyed values the entry stores.  An entry whose key
    values, ``objectClass`` and claim inputs all held is only swapped in:
    it is filed where it was.  The partition test images only the rules
    the partitions read (``partition.deps``), in one call of the
    mapping's imager for that target set, tests each mapping's own
    partition once per entry and each instance partition once per
    binding, and is skipped when none of the source attributes those
    rules read changed.
    """

    def __init__(self, base: DN, bindings: Sequence, entries: Iterable[Entry]):
        self.base = base
        self.bindings = tuple(bindings)
        self.parts = _binding_parts(self.bindings)
        #: Per binding: its key attribute (lower case), or None.
        self._key_attrs = tuple(
            b.to_ldap.key_target.lower() if b.to_ldap.key_target else None
            for b in self.bindings
        )
        # One partition group per from_ldap mapping: the image targets its
        # partitions read, its bindings' positions and their partitions.
        groups: dict[int, tuple] = {}
        for index, binding in enumerate(self.bindings):
            mapping = binding.from_ldap
            _, targets, indexes = groups.setdefault(
                id(mapping), (mapping, set(mapping.partition.deps), [])
            )
            if binding.partition is not None:
                targets.update(binding.partition.deps)
            indexes.append(index)
        self._groups = []
        #: The source attributes the claims of an entry depend on.
        inputs = {attr for attr in self._key_attrs if attr is not None}
        for mapping, targets, indexes in groups.values():
            for rule in mapping.rules:
                if rule.target.lower() in targets:
                    inputs.update(rule.deps)
            if mapping.key_source is not None:
                inputs.add(mapping.key_source.lower())
            self._groups.append(
                (
                    mapping,
                    mapping.imager(frozenset(targets)),
                    tuple(indexes),
                    tuple(self.bindings[i].partition for i in indexes),
                )
            )
        self._inputs = tuple(sorted(inputs))
        self._located: dict[str, dict[str, set[tuple]]] = {
            attr: {} for attr in self._key_attrs if attr is not None
        }
        #: What decides where an entry is filed: its key attributes, its
        #: object classes (the person test) and its claim inputs.
        self._filed_by = tuple(sorted({*self._located, "objectclass", *inputs}))
        #: DN key → the entry the view holds.
        self._entries: dict[tuple, Entry] = {}
        #: DN key → key attribute → the entry's values of it.
        self._keys: dict[tuple, dict[str, tuple[str, ...]]] = {}
        #: Person DN key → (its input values, the bindings it claims).
        self._claims: dict[tuple, tuple[tuple, tuple[int, ...]]] = {}
        #: Per binding: claimed DN key → its key value, lower-cased.
        self._claimed: list[dict[tuple, str]] = [{} for _ in self.bindings]
        #: Parent DN key → how many of its children the view holds.
        self._children: dict[tuple, int] = {}
        #: Per binding: device key → (the dumped record as last verified,
        #: its LDAP key, the entry it matched, the key normalized and
        #: lower-cased) — the last comparison's consistent pairs.
        self._verified: list[dict[str, tuple[dict, str, Entry, str, str]]] = [
            {} for _ in self.bindings
        ]
        #: Device records the comparisons against this view have imaged.
        self.imaged = 0
        for entry in entries:
            self.put(entry.dn, entry)

    def built_for(self, bindings: Sequence) -> bool:
        """Are *bindings* and their mappings and partitions the very
        objects this view was built for?"""
        parts = _binding_parts(bindings)
        return len(parts) == len(self.parts) and all(
            a is b for a, b in zip(parts, self.parts)
        )

    def has_children(self, dn: DN) -> bool:
        return dn.normalized() in self._children

    def put(self, dn: DN, entry: Entry | None) -> None:
        """Re-image the entry at *dn*; None means it is gone."""
        key = dn.normalized()
        if entry is not None:
            held = self._entries.get(key)
            if held is not None:
                filed_by = self._filed_by
                if list(map(held.attributes.lowered().get, filed_by)) == list(
                    map(entry.attributes.lowered().get, filed_by)
                ):
                    # Filed where it was: only the entry (and with it the
                    # DN's spelling) changes.
                    self._entries[key] = entry
                    return
        before = self._drop(key)
        if entry is None or not entry.dn.is_under(self.base):
            return
        self._entries[key] = entry
        self._children[key[1:]] = self._children.get(key[1:], 0) + 1
        stored = entry.attributes.lowered()
        keys: dict[str, tuple[str, ...]] = {}
        for attr, table in self._located.items():
            values = stored.get(attr)
            if values:
                keys[attr] = values
                for value in values:
                    table.setdefault(_norm_value(value), set()).add(key)
        self._keys[key] = keys
        if not keys or not _PERSON.matches(entry):
            return
        inputs = tuple(map(stored.get, self._inputs))
        if before is not None and before[0] == inputs:
            claims = before[1]
        else:
            claims = self._claims_of(stored, keys)
        self._claims[key] = (inputs, claims)
        for index in claims:
            self._claimed[index][key] = keys[self._key_attrs[index]][0].lower()

    def _claims_of(
        self,
        stored: Mapping[str, Sequence[str]],
        keys: dict[str, tuple[str, ...]],
    ) -> tuple[int, ...]:
        """The bindings whose partitions claim the entry whose stored
        lower-keyed values are *stored*."""
        claims: list[int] = []
        for mapping, image_of, indexes, partitions in self._groups:
            _, image = image_of(stored)
            for index, claimed in zip(indexes, mapping._claimed(image, partitions)):
                if claimed and self._key_attrs[index] in keys:
                    claims.append(index)
        return tuple(claims)

    def _drop(self, key: tuple) -> tuple[tuple, tuple[int, ...]] | None:
        """Forget the entry at *key*; returns its claims record."""
        if self._entries.pop(key, None) is None:
            return None
        parent = key[1:]
        if self._children[parent] == 1:
            del self._children[parent]
        else:
            self._children[parent] -= 1
        for attr, values in self._keys.pop(key).items():
            table = self._located[attr]
            for value in values:
                bucket = table.get(_norm_value(value))
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del table[_norm_value(value)]
        before = self._claims.pop(key, None)
        if before is not None:
            for index in before[1]:
                del self._claimed[index][key]
        return before

    def locate(self, attribute: str, normalized: str) -> Entry | None:
        """The entry an ``(attribute=value)`` search under the base
        returns first, or None; *attribute* is lower-case and
        *normalized* is the value as :func:`~repro.ldap.entry._norm_value`
        folds it."""
        table = self._located.get(attribute)
        keys = table.get(normalized) if table is not None else None
        return self._entries[min(keys)] if keys else None

    def _index(self, binding) -> int:
        return next(i for i, b in enumerate(self.bindings) if b is binding)

    def verified(self, binding) -> dict[str, tuple[dict, str, Entry, str, str]]:
        """*binding*'s memo: device key → (record, LDAP key, entry, the
        key normalized, the key lower-cased) of each pair its last
        comparison found consistent."""
        return self._verified[self._index(binding)]

    def remember(self, binding, verified: dict, imaged: int) -> None:
        """Replace *binding*'s memo with *verified*, after a comparison
        that imaged *imaged* device records."""
        self._verified[self._index(binding)] = verified
        self.imaged += imaged

    def unheld(self, binding, device_keys: set[str]) -> list[tuple[Entry, str]]:
        """The entries *binding*'s partition claims whose key value (lower
        case) is not in *device_keys*, as (entry, key value) in DN order."""
        index = self._index(binding)
        attr = self._key_attrs[index]
        missing = sorted(
            key
            for key, value in self._claimed[index].items()
            if value not in device_keys
        )
        return [(self._entries[key], self._keys[key][attr][0]) for key in missing]


@dataclass
class AuditReport:
    """What one audit cycle saw."""

    cycle: int
    #: Device bindings probed this cycle (one in sampling mode, all in full).
    probed: tuple[str, ...] = ()
    #: Binding name → problem strings (empty lists are pruned).
    mismatches: dict[str, list[str]] = field(default_factory=dict)
    queue_depth: int = 0
    oldest_age: float = 0.0
    last_serial: int = 0
    #: Binding name → serial lag behind the queue's last issued serial.
    device_lag: dict[str, int] = field(default_factory=dict)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def mismatch_count(self) -> int:
        return sum(len(problems) for problems in self.mismatches.values())

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "probed": list(self.probed),
            "ok": self.ok,
            "mismatches": {k: list(v) for k, v in self.mismatches.items()},
            "queue_depth": self.queue_depth,
            "oldest_age": self.oldest_age,
            "last_serial": self.last_serial,
            "device_lag": dict(self.device_lag),
            "duration": self.duration,
        }


class ConsistencyAuditor:
    """Round-robin ``consistent()`` sampler + staleness-gauge refresher.

    ``run_cycle()`` probes the next binding slice (or every binding with
    ``full=True``) and publishes what it saw; ``start()`` runs cycles on
    a daemon thread at ``interval`` seconds.  The auditor never takes the
    gateway quiesce — it reads live state and accepts sampling noise.
    It owns the maintained :class:`DirectoryView` its probes compare
    against, and serializes the probes on ``_lock``.
    """

    def __init__(self, system, interval: float = 0.5):
        self.system = system
        self.interval = interval
        registry = system.obs.registry
        self.journal = system.obs.journal
        self._cycle = 0
        self._next_binding = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.last_report: AuditReport | None = None
        # The maintained directory view, built by the first probe and
        # kept current by re-imaging the DNs the backend listener notes
        # (it notes nothing until that first build).
        self._view: DirectoryView | None = None
        self._changes = _ChangeSet()
        system.server.backend.add_listener(self._changes.note)
        self._cycle_local = threading.local()

        self.journal.derive(
            AUDIT_CYCLE,
            registry.counter(
                "metacomm_audit_cycles_total",
                "Consistency-audit sampling cycles completed",
            ),
        )
        self.journal.derive(
            AUDIT_MISMATCH,
            registry.counter(
                "metacomm_audit_mismatches_total",
                "Device/directory disagreements observed by the auditor",
                labelnames=("device",),
            ),
            by="count",
        )
        self._last_mismatches = registry.gauge(
            "metacomm_audit_last_mismatches",
            "Disagreements seen in the most recent audit cycle "
            "(the audit-mismatch alert rule's input)",
        )
        self._errors_total = registry.counter(
            "metacomm_audit_errors_total",
            "Audit cycles that raised instead of completing",
        )
        self._cycle_seconds = registry.histogram(
            "metacomm_audit_cycle_seconds",
            "Duration of one consistency-audit cycle",
        )
        self._reimaged_total = registry.counter(
            "metacomm_audit_reimaged_total",
            "Dirty directory DNs the auditor processed, re-indexed or "
            "filed in place",
        )
        self._rebuilds_total = registry.counter(
            "metacomm_audit_rebuilds_total",
            "Full builds of the auditor's directory view",
        )

    # -- the maintained directory view -------------------------------------

    @contextmanager
    def directory_view(self) -> Iterator[DirectoryView]:
        """The maintained directory view, brought up to date and held
        for the caller's comparison; probes are serialized."""
        with self._lock:
            view = self._refresh()
            imaged = view.imaged
            yield view
            self._cycle_local.imaged = (
                getattr(self._cycle_local, "imaged", 0) + view.imaged - imaged
            )

    def _refresh(self) -> DirectoryView:
        """Caller holds ``_lock``."""
        system = self.system
        backend = system.server.backend
        bindings = list(system.um.bindings)
        with backend._lock:
            stale, dirty, renamed = self._changes.take(max(backend.size(), 64))
        view = self._view
        if (
            stale
            or view is None
            or not view.built_for(bindings)
            or view.base != system.um.ldap_filter.people_base
            # A renamed entry with children: its descendants were
            # re-keyed without change records of their own.
            or any(view.has_children(dn) for dn in renamed)
        ):
            view = system.directory_view(bindings)
            self._view = view
            self._rebuilds_total.inc()
        else:
            for dn in dirty:
                view.put(dn, self._read_entry(dn))
            self._reimaged_total.inc(len(dirty))
            self._cycle_local.reimaged = (
                getattr(self._cycle_local, "reimaged", 0) + len(dirty)
            )
        return view

    def _read_entry(self, dn: DN) -> Entry | None:
        try:
            return self.system.server.backend.get(dn)
        except NoSuchObjectError:
            return None

    # -- one cycle ---------------------------------------------------------

    def run_cycle(self, full: bool = False) -> AuditReport:
        """Probe one binding slice (round-robin), or all with ``full``."""
        start = time.perf_counter()
        bindings = list(self.system.um.bindings)
        with self._lock:
            self._cycle += 1
            cycle = self._cycle
            if full or not bindings:
                probed = bindings
            else:
                probed = [bindings[self._next_binding % len(bindings)]]
                self._next_binding += 1

        report = AuditReport(cycle=cycle, probed=tuple(b.name for b in probed))
        self._cycle_local.reimaged = 0
        self._cycle_local.imaged = 0
        for binding in probed:
            problems = self.system.binding_inconsistencies(binding)
            if problems:
                report.mismatches[binding.name] = problems
                self.journal.emit(
                    AUDIT_MISMATCH,
                    device=binding.name,
                    count=len(problems),
                    problems=problems[:_DETAIL_LIMIT],
                    cycle=cycle,
                )

        # Staleness gauges: queue depth/age and per-device serial lag.
        queue = self.system.um.queue
        report.queue_depth = len(queue)
        report.oldest_age = queue.refresh_staleness()
        report.last_serial = queue.last_serial
        health = self.system.obs.health
        for binding in bindings:
            device_health = health.device(binding.name)
            report.device_lag[binding.name] = max(
                0, report.last_serial - device_health.last_applied_serial
            )
        health.refresh_gauges(
            last_serial=report.last_serial, lags=report.device_lag
        )

        self._last_mismatches.set(report.mismatch_count)
        report.duration = time.perf_counter() - start
        self._cycle_seconds.observe(report.duration)
        self.journal.emit(
            AUDIT_CYCLE,
            cycle=cycle,
            probed=list(report.probed),
            mismatches=report.mismatch_count,
            reimaged=self._cycle_local.reimaged,
            imaged=self._cycle_local.imaged,
            queue_depth=report.queue_depth,
            oldest_age=round(report.oldest_age, 6),
        )
        self.last_report = report

        # Alert rules ride the audit clock (never the update hot path).
        alerts = getattr(self.system, "alerts", None)
        if alerts is not None:
            alerts.evaluate()
        return report

    # -- background loop ---------------------------------------------------

    def start(self, interval: float | None = None) -> None:
        """Run cycles on a daemon thread every ``interval`` seconds."""
        if interval is not None:
            self.interval = interval
        if self._thread is not None:
            return
        self._stop = threading.Event()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.run_cycle()
                except Exception:
                    # The auditor observes the system; it must never be
                    # the thing that takes it down.
                    self._errors_total.inc()

        self._thread = threading.Thread(
            target=loop, name="metacomm-auditor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None
