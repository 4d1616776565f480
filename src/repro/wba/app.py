"""Web-Based Administration (WBA).

Figure 1's client application: "a single point of administration for the
telecom devices. ... any LDAP tool can contact LTAP to administer the
telecom devices, for example, any LDAP enabled Web browser."  The WBA here
is that tool, minus the browser chrome: form in, LDAP operations through
LTAP out, with a plain-text renderer standing in for HTML.

It also implements the hoteling application of section 4.5 / reference
[2]: shared workspaces reserved as needed, realized by redirecting a
person's extension to a room (and its port) and back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.metacomm import MetaComm
from ..ldap.client import LdapConnection
from ..ldap.dn import DN, Rdn
from ..ldap.protocol import Modification, Scope
from ..ldap.result import LdapError, ResultCode
from ..schemas.integrated import PERSON_CLASSES
from .forms import FIELDS_BY_NAME, USER_FORM, validate


@dataclass(frozen=True)
class UserRow:
    """One row of the WBA user listing."""

    dn: str
    name: str
    extension: str
    phone: str
    room: str
    mailbox: str


class WebAdmin:
    """The WBA application object (one per operator session)."""

    def __init__(self, system: MetaComm, operator: str = "wba"):
        self.system = system
        self.operator = operator
        self.connection: LdapConnection = system.connection()

    # -- listing / viewing -------------------------------------------------------

    def list_users(self, filter_text: str = "(objectClass=person)") -> list[UserRow]:
        entries = self.connection.search(
            self.system.suffix, Scope.SUB, filter_text
        )
        rows = []
        for entry in entries:
            if "person" not in [c.lower() for c in entry.object_classes]:
                continue
            rows.append(
                UserRow(
                    dn=str(entry.dn),
                    name=entry.first("cn", "") or "",
                    extension=entry.first("definityExtension", "") or "",
                    phone=entry.first("telephoneNumber", "") or "",
                    room=entry.first("definityRoom", "") or "",
                    mailbox=entry.first("mpMailboxId", "") or "",
                )
            )
        return sorted(rows, key=lambda r: r.name)

    def user_form(self, dn: DN | str) -> dict[str, str]:
        """Current form values for one user (what the browser renders)."""
        entry = self.connection.get(dn)
        return {
            f.name: entry.first(f.attribute, "") or "" for f in USER_FORM
        }

    # -- create / update / delete ----------------------------------------------------

    def create_user(self, organization: str | None, **values: str) -> str:
        """Submit the new-user form; returns the created DN."""
        cleaned = validate(values, require_mandatory=True)
        parent = (
            self.system.suffix.child(f"o={organization}")
            if organization
            else self.system.suffix
        )
        dn = parent.child(Rdn.single("cn", cleaned["full_name"]))
        attrs: dict[str, object] = {"objectClass": list(PERSON_CLASSES)}
        for name, value in cleaned.items():
            if value:
                attrs[FIELDS_BY_NAME[name].attribute] = value
        self.connection.add(dn, attrs)  # type: ignore[arg-type]
        return str(dn)

    def update_user(self, dn: DN | str, **values: str) -> None:
        """Submit the edit form: empty string clears a field."""
        cleaned = validate(values, require_mandatory=False)
        entry = self.connection.get(dn)
        mods: list[Modification] = []
        for name, value in cleaned.items():
            attribute = FIELDS_BY_NAME[name].attribute
            if value:
                if entry.get(attribute) != (value,):
                    mods.append(Modification.replace(attribute, value))
            elif entry.has(attribute):
                mods.append(Modification.delete(attribute))
        rename = next(
            (m for m in mods if m.attribute.lower() == "cn"), None
        )
        if rename is not None:
            mods.remove(rename)
            self.connection.modify_rdn(dn, Rdn.single("cn", rename.values[0]))
            dn = DN.parse(str(dn)).parent().child(
                Rdn.single("cn", rename.values[0])
            )
        if mods:
            self.connection.modify(dn, mods)

    def delete_user(self, dn: DN | str) -> None:
        self.connection.delete(dn)

    # -- hoteling (section 4.5) ------------------------------------------------------

    def hotel_checkin(self, dn: DN | str, room: str, port: str | None = None) -> None:
        """Redirect a person's extension to a visited workspace."""
        entry = self.connection.get(dn)
        if not entry.has("definityExtension"):
            raise LdapError(
                ResultCode.UNWILLING_TO_PERFORM,
                f"{dn} has no PBX extension to redirect",
            )
        mods = [Modification.replace("definityRoom", room)]
        if port:
            mods.append(Modification.replace("definityPort", port))
        # Remember home room for checkout, in the description field.
        home = entry.first("definityRoom", "")
        if home and not entry.has("description"):
            mods.append(Modification.add("description", f"home-room:{home}"))
        self.connection.modify(dn, mods)

    def hotel_checkout(self, dn: DN | str) -> None:
        """Restore the person's home workspace."""
        entry = self.connection.get(dn)
        home = None
        for value in entry.get("description"):
            if value.startswith("home-room:"):
                home = value.split(":", 1)[1]
        mods: list[Modification] = []
        if home:
            mods.append(Modification.replace("definityRoom", home))
            mods.append(Modification.delete("description", f"home-room:{home}"))
        elif entry.has("definityRoom"):
            mods.append(Modification.delete("definityRoom"))
        if entry.has("definityPort"):
            mods.append(Modification.delete("definityPort"))
        if mods:
            self.connection.modify(dn, mods)

    # -- rendering ----------------------------------------------------------------------

    def render_user_list(self, rows: list[UserRow] | None = None) -> str:
        rows = self.list_users() if rows is None else rows
        lines = [
            f"{'Name':<24}{'Ext':<7}{'Phone':<18}{'Room':<9}{'Mailbox':<10}",
            "-" * 68,
        ]
        for row in rows:
            lines.append(
                f"{row.name:<24}{row.extension:<7}{row.phone:<18}"
                f"{row.room:<9}{row.mailbox:<10}"
            )
        return "\n".join(lines)

    def render_user_form(self, dn: DN | str) -> str:
        values = self.user_form(dn)
        lines = [f"User form — {dn}", "-" * 40]
        for form_field in USER_FORM:
            marker = " (read-only)" if form_field.read_only else ""
            lines.append(
                f"{form_field.label + ':':<20}{values[form_field.name]}{marker}"
            )
        return "\n".join(lines)
