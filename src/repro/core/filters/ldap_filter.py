"""The LDAP filter: adapter between the Update Manager and the directory.

Two jobs, mirroring Figure 1's arrows:

* **Forwarding DDUs** — a device-originated update, translated into the
  LDAP schema, is applied *through LTAP with triggers firing*, so locks
  are obtained and the update comes back to the UM with the device as its
  origin ("the update is eventually sent back to the UM after proper LTAP
  locks are obtained", section 4.4).
* **Supplemental writes** — during the UM's fan-out the closure may have
  derived additional LDAP attributes (the transitive closure, generated
  mailbox ids, the ``lastUpdater`` stamp).  Those are applied with
  triggers suppressed (the closure already reached its fixpoint) while
  re-entering the entry lock of the triggering session.

Entry location: person entries are found anywhere under the people base by
their key attribute (``definityExtension``, ``telephoneNumber``, ...); new
entries are created under a default container with ``cn=<cn>`` RDNs.  A cn
change therefore needs the infamous ModifyRDN + Modify pair of section
5.1 — non-atomic by LDAP's nature — and the filter exposes a crash hook
between the two operations so experiments can reproduce the window.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from ...ldap.client import LdapConnection
from ...ldap.dn import DN, Rdn
from ...ldap.entry import Entry
from ...ldap.filter import Equality
from ...ldap.protocol import LdapHandler, Modification, Scope, Session
from ...ldap.result import LdapError
from ...lexpress.descriptor import TargetAction, TargetUpdate
from ...ltap.gateway import SUPPRESS_TRIGGERS
from ...schemas.integrated import PERSON_CLASSES
from .base import ApplyResult, Filter, FilterError

#: Attributes never removed when a device releases a person.
_PRESERVED_ON_DELETE = frozenset({"objectclass", "cn", "sn", "userpassword"})


class UmCrash(RuntimeError):
    """Raised by the crash hook to simulate a UM failure mid-sequence."""


class LdapFilter(Filter):
    """Adapter for the LDAP directory (through the LTAP gateway)."""

    def __init__(
        self,
        gateway: LdapHandler,
        people_base: DN | str,
        default_container: DN | str | None = None,
        person_classes: Iterable[str] = PERSON_CLASSES,
        name: str = "ldap",
        registry=None,
    ):
        super().__init__(name, schema="ldap", registry=registry)
        self.gateway = gateway
        self.people_base = DN.parse(people_base) if isinstance(people_base, str) else people_base
        if default_container is None:
            default_container = self.people_base
        self.default_container = (
            DN.parse(default_container)
            if isinstance(default_container, str)
            else default_container
        )
        self.person_classes = tuple(person_classes)
        #: Test/experiment hook called between the ModifyRDN and the
        #: Modify of a rename pair (section 5.1); raising simulates a UM
        #: crash at the worst moment.
        self.crash_hook: Callable[[str], None] | None = None

    # -- connections ------------------------------------------------------------

    def _connection(self, session: Session | None, suppress: bool) -> LdapConnection:
        conn = LdapConnection(self.gateway)
        if session is not None:
            conn.session = session
        if suppress:
            conn.session.state[SUPPRESS_TRIGGERS] = True
        return conn

    # -- unified API ------------------------------------------------------------

    def locate(self, key_attribute: str, key: str) -> Entry | None:
        """Find the person entry carrying ``key_attribute=key``."""
        conn = self._connection(None, suppress=False)
        hits = conn.search(
            self.people_base,
            Scope.SUB,
            Equality(key_attribute, key),
        )
        return hits[0] if hits else None

    def fetch_entry(self, update: TargetUpdate) -> Entry | None:
        if update.key_attribute is None:
            return None
        key = update.old_key or update.key
        if key is None:
            return None
        return self.locate(update.key_attribute, key)

    def fetch(self, key: str) -> dict[str, list[str]] | None:
        """Fetch by DN string (the directory's natural key)."""
        conn = self._connection(None, suppress=False)
        try:
            return conn.get(key).attributes.to_dict()
        except LdapError:
            return None

    def dump(self) -> list[dict[str, list[str]]]:
        conn = self._connection(None, suppress=False)
        hits = conn.search(self.people_base, Scope.SUB, "(objectClass=person)")
        return [e.attributes.to_dict() for e in hits]

    def person_entries(self) -> list[Entry]:
        conn = self._connection(None, suppress=False)
        return conn.search(self.people_base, Scope.SUB, "(objectClass=person)")

    # -- applying updates --------------------------------------------------------

    def apply(self, update: TargetUpdate, session: Session | None = None) -> ApplyResult:
        """Supplemental apply: triggers suppressed, entry lock re-entered."""
        return self._apply_update(update, session, suppress=True)

    def forward_ddu(
        self, update: TargetUpdate, origin: str, session: Session | None = None
    ) -> ApplyResult:
        """Apply a device-originated update *with* trigger processing.

        The session is stamped with the origin so the trigger handler can
        build a descriptor whose origin is the device — the input to the
        Originator/conditional machinery."""
        conn_session = session or Session()
        conn_session.state["metacomm.origin"] = origin
        try:
            return self._apply_update(update, conn_session, suppress=False)
        finally:
            conn_session.state.pop("metacomm.origin", None)

    def _apply_update(
        self, update: TargetUpdate, session: Session | None, suppress: bool
    ) -> ApplyResult:
        suppressed_before = bool(session.state.get(SUPPRESS_TRIGGERS)) if session else False
        conn = self._connection(session, suppress=suppress)
        with self._apply_timer():
            try:
                result = self._dispatch(update, conn)
                return self._track(result, update)
            except LdapError as exc:
                self._count("failed")
                raise FilterError(self.name, str(exc)) from exc
            finally:
                if suppress and session is not None and not suppressed_before:
                    session.state.pop(SUPPRESS_TRIGGERS, None)

    def _dispatch(self, update: TargetUpdate, conn: LdapConnection) -> ApplyResult:
        if update.action is TargetAction.SKIP:
            return ApplyResult(self.name, update.action, applied=False)
        if update.action is TargetAction.ADD:
            return self._apply_add(update, conn)
        if update.action is TargetAction.MODIFY:
            return self._apply_modify(update, conn)
        if update.action is TargetAction.DELETE:
            return self._apply_delete(update, conn)
        raise FilterError(self.name, f"unknown action {update.action}")

    def apply_supplemental(
        self,
        dn: DN,
        attributes: Mapping[str, list[str]],
        session: Session | None = None,
    ) -> bool:
        """Write closure-derived / device-generated attributes to one entry.

        Runs with triggers suppressed (the closure already reached its
        fixpoint) while re-entering the caller's entry lock.  Returns True
        when anything was actually written."""
        suppressed_before = session is not None and bool(
            session.state.get(SUPPRESS_TRIGGERS)
        )
        conn = self._connection(session, suppress=True)
        try:
            try:
                entry = conn.get(dn)
            except LdapError:
                return False
            # LDAP attribute names are caseless; fold the supplement onto
            # one canonical key per attribute (last writer wins) so a
            # caller passing e.g. both ``telephonenumber`` and
            # ``telephoneNumber`` cannot emit duplicate modifications.
            canonical: dict[str, str] = {}
            folded: dict[str, list[str]] = {}
            for name, values in attributes.items():
                key = canonical.setdefault(name.lower(), name)
                folded[key] = list(values)
            attributes = folded
            # Values that are part of the entry's RDN must never be
            # stripped by a replace (the server would reject it, aborting
            # the whole supplement batch).
            rdn_values = {
                attr.lower(): value for attr, value in entry.dn.rdn.items()
            }
            safe_attrs: dict[str, list[str]] = {}
            for name, values in attributes.items():
                rdn_value = rdn_values.get(name.lower())
                if rdn_value is not None and rdn_value not in values:
                    values = list(values) + [rdn_value]
                safe_attrs[name] = list(values)
            mods = self._mods_for_attrs(safe_attrs, entry)
            if not mods:
                return False
            conn.modify(dn, mods)
            return True
        finally:
            if session is not None and not suppressed_before:
                session.state.pop(SUPPRESS_TRIGGERS, None)

    # -- add -----------------------------------------------------------------------

    def _cn_for(self, attrs: Mapping[str, list[str]], update: TargetUpdate) -> str:
        for name, values in attrs.items():
            if name.lower() == "cn" and values:
                return values[0]
        return update.key or "unknown"

    def _unique_dn(self, cn: str, key: str | None, conn: LdapConnection) -> DN:
        dn = self.default_container.child(Rdn.single("cn", cn))
        if not conn.exists(dn):
            return dn
        if key is not None:
            dn = self.default_container.child(Rdn.single("cn", f"{cn} ({key})"))
            if not conn.exists(dn):
                return dn
        raise FilterError(self.name, f"cannot find a unique DN for cn={cn}")

    def _apply_add(self, update: TargetUpdate, conn: LdapConnection) -> ApplyResult:
        existing = self.fetch_entry(update)
        if existing is None:
            # Identity resolution by name: a person whose device data was
            # stripped earlier (station removed, later re-added) should be
            # re-attached, not duplicated.  Only an entry that does not
            # already claim a *different* key is a safe match.
            existing = self._match_by_cn(update, conn)
        if existing is not None:
            # Conditional reapply, or the person already exists (e.g. data
            # for another device already materialized the entry): merge.
            mods = self._mods_for_attrs(update.attributes, existing)
            if mods:
                conn.modify(existing.dn, mods)
            return ApplyResult(
                self.name, update.action, applied=bool(mods),
                recovered=update.conditional,
            )
        attrs: dict[str, list[str]] = {"objectClass": list(self.person_classes)}
        attrs.update({k: list(v) for k, v in update.attributes.items()})
        cn = self._cn_for(attrs, update)
        attrs.setdefault("cn", [cn])
        if not any(n.lower() == "sn" for n in attrs):
            attrs["sn"] = [cn.split()[-1] if cn.split() else cn]
        dn = self._unique_dn(cn, update.key, conn)
        conn.add(dn, attrs)
        return ApplyResult(self.name, update.action, applied=True)

    def _match_by_cn(
        self, update: TargetUpdate, conn: LdapConnection
    ) -> Entry | None:
        cn = None
        for name, values in update.attributes.items():
            if name.lower() == "cn" and values:
                cn = values[0]
                break
        if cn is None:
            return None
        hits = conn.search(
            self.people_base,
            Scope.SUB,
            Equality("cn", cn),
        )
        for hit in hits:
            if "person" not in [c.lower() for c in hit.object_classes]:
                continue
            if update.key_attribute is not None and hit.has(update.key_attribute):
                continue  # already belongs to someone else on this device
            return hit
        return None

    @staticmethod
    def _mods_for_attrs(
        attrs: Mapping[str, list[str]], existing: Entry
    ) -> list[Modification]:
        mods = []
        for name, values in attrs.items():
            if existing.get(name) != tuple(values):
                mods.append(Modification.replace(name, *values))
        return mods

    # -- modify ------------------------------------------------------------------------

    def _apply_modify(self, update: TargetUpdate, conn: LdapConnection) -> ApplyResult:
        entry = self.fetch_entry(update)
        if entry is None:
            if update.conditional:
                return self._apply_add(update, conn)
            raise FilterError(
                self.name,
                f"no entry with {update.key_attribute}={update.old_key or update.key}",
            )
        dn = entry.dn

        # The section-5.1 pair: a cn change renames the entry (ModifyRDN)
        # and the remaining attributes follow in a separate Modify.  The
        # entry locks (old and new DN) are held across the whole pair —
        # "locking at the LTAP level prevents the interleaving of
        # operations at the LDAP level" — though a UM crash between the
        # two still leaves readers an inconsistent entry.
        new_cn = update.changed.get("cn") or next(
            (v for k, v in update.changed.items() if k.lower() == "cn"), None
        )
        renamed = False
        held: list = []
        locks = getattr(self.gateway, "locks", None)
        try:
            if new_cn and dn.rdn.attribute.lower() == "cn":
                target_rdn = Rdn.single("cn", new_cn[0])
                if target_rdn != dn.rdn:
                    new_dn = dn.parent().child(target_rdn)
                    if locks is not None:
                        for lock_dn in (dn, new_dn):
                            locks.acquire(lock_dn, conn.session)
                            held.append(lock_dn)
                    conn.modify_rdn(dn, target_rdn)
                    dn = new_dn
                    renamed = True
                    if self.crash_hook is not None:
                        self.crash_hook("between-rdn-and-modify")

            mods: list[Modification] = []
            for name, values in update.changed.items():
                if renamed and name.lower() == "cn":
                    continue  # already handled by the rename
                mods.append(Modification.replace(name, *values))
            for name in update.removed:
                if entry.has(name):
                    mods.append(Modification.delete(name))
            if mods:
                conn.modify(dn, mods)
        finally:
            if locks is not None:
                for lock_dn in held:
                    locks.release(lock_dn, conn.session)
        if not mods and not renamed:
            return ApplyResult(self.name, update.action, applied=False)
        return ApplyResult(self.name, update.action, applied=True)

    # -- delete -------------------------------------------------------------------------

    def _apply_delete(self, update: TargetUpdate, conn: LdapConnection) -> ApplyResult:
        entry = self.fetch_entry(update)
        if entry is None:
            if update.conditional:
                return ApplyResult(
                    self.name, update.action, applied=False, recovered=True
                )
            raise FilterError(
                self.name, f"no entry with {update.key_attribute}={update.key}"
            )
        # Removing a person from a device strips the device's attributes
        # from the entry; the person itself stays in the directory.
        mods = []
        for name in update.old_attributes:
            if name.lower() in _PRESERVED_ON_DELETE:
                continue
            if entry.has(name):
                mods.append(Modification.delete(name))
        if mods:
            conn.modify(entry.dn, mods)
        return ApplyResult(self.name, update.action, applied=bool(mods))
