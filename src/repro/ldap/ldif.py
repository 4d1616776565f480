"""LDIF (LDAP Data Interchange Format) reading and writing.

Implements the content-record subset of RFC 2849: one record per entry,
``dn:`` first, base64 for values that need it, line folding at 76 columns,
``#`` comments and blank-line separators.  Used for initial population,
backups and the synchronization examples.
"""

from __future__ import annotations

import base64
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .protocol import Modification

from .dn import DN
from .entry import Entry

_SAFE_INIT = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "!\"#$%&'()*+,-./;<=>?@[\\]^_`{|}~"
)
_WRAP = 76


def _needs_base64(value: str) -> bool:
    if value == "":
        return False
    if value[0] in (" ", ":", "<"):
        return True
    if value != value.strip():
        return True
    return any(ord(ch) < 32 or ord(ch) > 126 for ch in value)


def _fold(line: str) -> Iterator[str]:
    if len(line) <= _WRAP:
        yield line
        return
    yield line[:_WRAP]
    rest = line[_WRAP:]
    step = _WRAP - 1
    for i in range(0, len(rest), step):
        yield " " + rest[i:i + step]


def _emit(name: str, value: str) -> Iterator[str]:
    if _needs_base64(value):
        encoded = base64.b64encode(value.encode("utf-8")).decode("ascii")
        yield from _fold(f"{name}:: {encoded}")
    else:
        yield from _fold(f"{name}: {value}")


def entry_to_ldif(entry: Entry) -> str:
    """Serialize one entry as an LDIF record (without trailing blank line)."""
    lines: list[str] = []
    lines.extend(_emit("dn", str(entry.dn)))
    # objectClass first, by convention.
    for value in entry.get("objectClass"):
        lines.extend(_emit("objectClass", value))
    for name, values in entry.attributes.items():
        if name.lower() == "objectclass":
            continue
        for value in values:
            lines.extend(_emit(name, value))
    return "\n".join(lines)


def write_ldif(entries: Iterable[Entry], stream: TextIO | None = None) -> str:
    """Write entries to *stream* (or return a string) as an LDIF document."""
    own = stream is None
    out = stream or io.StringIO()
    out.write("version: 1\n")
    for entry in entries:
        out.write("\n")
        out.write(entry_to_ldif(entry))
        out.write("\n")
    if own:
        return out.getvalue()  # type: ignore[union-attr]
    return ""


class LdifSyntaxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Change records (the RFC 2849 update format: changetype add/modify/...)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LdifChange:
    """One LDIF change record.

    ``changetype`` is one of ``add``, ``delete``, ``modify``, ``modrdn``.
    For adds, ``attributes`` holds the new entry's attributes; for
    modifies, ``modifications`` holds the parsed Modification list; for
    modrdn, ``new_rdn``/``delete_old_rdn`` are set.
    """

    dn: DN
    changetype: str
    attributes: dict[str, list[str]] | None = None
    modifications: tuple["Modification", ...] = ()
    new_rdn: str | None = None
    delete_old_rdn: bool = True


def write_change_ldif(changes: Iterable[LdifChange]) -> str:
    """Serialize change records as an LDIF update document."""
    blocks: list[str] = ["version: 1"]
    for change in changes:
        lines: list[str] = []
        lines.extend(_emit("dn", str(change.dn)))
        lines.append(f"changetype: {change.changetype}")
        if change.changetype == "add":
            for name, values in (change.attributes or {}).items():
                for value in values:
                    lines.extend(_emit(name, value))
        elif change.changetype == "modify":
            for mod in change.modifications:
                lines.append(f"{mod.op.value}: {mod.attribute}")
                for value in mod.values:
                    lines.extend(_emit(mod.attribute, value))
                lines.append("-")
        elif change.changetype == "modrdn":
            lines.extend(_emit("newrdn", change.new_rdn or ""))
            lines.append(f"deleteoldrdn: {1 if change.delete_old_rdn else 0}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def parse_change_ldif(text: str | TextIO) -> list[LdifChange]:
    """Parse an LDIF update document into change records."""
    from .protocol import ModOp, Modification

    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text
    changes: list[LdifChange] = []
    block: list[tuple[str, str]] = []

    def decode(line: str) -> tuple[str, str]:
        name, _, rest = line.partition(":")
        name = name.strip()
        if rest.startswith(":"):
            value = base64.b64decode(rest[1:].strip()).decode("utf-8")
        else:
            value = rest.strip()
        return name, value

    def flush() -> None:
        nonlocal block
        if not block:
            return
        fields = block
        block = []
        if fields[0][0].lower() != "dn":
            raise LdifSyntaxError("change record must start with dn")
        dn = DN.parse(fields[0][1])
        if len(fields) < 2 or fields[1][0].lower() != "changetype":
            raise LdifSyntaxError(f"{dn}: missing changetype")
        changetype = fields[1][1].lower()
        body = fields[2:]
        if changetype == "add":
            attributes: dict[str, list[str]] = {}
            for name, value in body:
                attributes.setdefault(name, []).append(value)
            changes.append(LdifChange(dn, "add", attributes=attributes))
        elif changetype == "delete":
            changes.append(LdifChange(dn, "delete"))
        elif changetype == "modify":
            mods: list[Modification] = []
            i = 0
            while i < len(body):
                op_name, attribute = body[i]
                try:
                    op = ModOp(op_name.lower())
                except ValueError:
                    raise LdifSyntaxError(
                        f"{dn}: bad modify op {op_name!r}"
                    ) from None
                i += 1
                values: list[str] = []
                while i < len(body) and body[i][0] != "-":
                    if body[i][0].lower() != attribute.lower():
                        raise LdifSyntaxError(
                            f"{dn}: value for {body[i][0]!r} inside "
                            f"{attribute!r} change"
                        )
                    values.append(body[i][1])
                    i += 1
                if i < len(body) and body[i][0] == "-":
                    i += 1
                mods.append(Modification(op, attribute, tuple(values)))
            changes.append(LdifChange(dn, "modify", modifications=tuple(mods)))
        elif changetype == "modrdn":
            new_rdn = None
            delete_old = True
            for name, value in body:
                if name.lower() == "newrdn":
                    new_rdn = value
                elif name.lower() == "deleteoldrdn":
                    delete_old = value.strip() not in ("0", "false")
            if new_rdn is None:
                raise LdifSyntaxError(f"{dn}: modrdn without newrdn")
            changes.append(
                LdifChange(dn, "modrdn", new_rdn=new_rdn, delete_old_rdn=delete_old)
            )
        else:
            raise LdifSyntaxError(f"{dn}: unknown changetype {changetype!r}")

    for line in _unfold(lines):
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        if stripped.lower().startswith("version:"):
            continue
        if stripped == "-":
            block.append(("-", ""))
            continue
        if ":" not in stripped:
            raise LdifSyntaxError(f"malformed LDIF line: {line!r}")
        name, value = decode(stripped)
        if name.lower() == "dn" and block:
            flush()
        block.append((name, value))
    flush()
    return changes


def apply_changes(connection, changes: Iterable[LdifChange]) -> int:
    """Replay change records through an LDAP connection; returns count."""
    applied = 0
    for change in changes:
        if change.changetype == "add":
            connection.add(change.dn, change.attributes or {})
        elif change.changetype == "delete":
            connection.delete(change.dn)
        elif change.changetype == "modify":
            connection.modify(change.dn, list(change.modifications))
        elif change.changetype == "modrdn":
            connection.modify_rdn(
                change.dn, change.new_rdn, change.delete_old_rdn
            )
        applied += 1
    return applied


def _unfold(lines: Iterable[str]) -> Iterator[str]:
    """Join continuation lines; strip comments; yield logical lines."""
    pending: str | None = None
    for raw in lines:
        line = raw.rstrip("\n")
        if line.startswith("#"):
            continue
        if line.startswith(" "):
            if pending is None:
                raise LdifSyntaxError(f"continuation with no preceding line: {raw!r}")
            pending += line[1:]
            continue
        if pending is not None:
            yield pending
        pending = line
    if pending is not None:
        yield pending


def parse_ldif(text: str | TextIO) -> list[Entry]:
    """Parse an LDIF document into a list of entries (document order)."""
    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text
    entries: list[Entry] = []
    dn: DN | None = None
    attrs: list[tuple[str, str]] = []

    def flush() -> None:
        nonlocal dn, attrs
        if dn is None:
            if attrs:
                raise LdifSyntaxError("attributes before dn line")
            return
        # One value list per attribute, under its first spelling.
        grouped: dict[str, list[str]] = {}
        spelling: dict[str, str] = {}
        for name, value in attrs:
            first = spelling.setdefault(name.lower(), name)
            grouped.setdefault(first, []).append(value)
        entries.append(Entry(dn, grouped))
        dn, attrs = None, []

    for line in _unfold(lines):
        if not line.strip():
            flush()
            continue
        if line.lower().startswith("version:"):
            continue
        if ":" not in line:
            raise LdifSyntaxError(f"malformed LDIF line: {line!r}")
        name, _, rest = line.partition(":")
        name = name.strip()
        if rest.startswith(":"):
            value = base64.b64decode(rest[1:].strip()).decode("utf-8")
        elif rest.startswith("<"):
            raise LdifSyntaxError("URL-valued LDIF attributes are not supported")
        else:
            value = rest.strip()
        if name.lower() == "dn":
            if dn is not None:
                flush()
            dn = DN.parse(value)
        else:
            if dn is None:
                raise LdifSyntaxError(f"attribute line before dn: {line!r}")
            attrs.append((name, value))
    flush()
    return entries
