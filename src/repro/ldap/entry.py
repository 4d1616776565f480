"""Directory entries, attribute collections and the modifications that
produce new ones.

LDAP attributes are weakly typed: every value is a string, attribute names
are case-insensitive, and an attribute holds a *set* of values (the paper's
section 5.3 complains that LDAP sets only hold atomic values — we model
exactly that).  :class:`Attributes` preserves the case of the first writer
for round-tripping to LDIF while comparing case-insensitively.

Entries are immutable.  A write builds one new :class:`Entry` through
:meth:`Attributes.modified`, and the DIT, the changelog's images, listeners
and read results all share that object: nobody can change server state
behind the server's back, because nobody can change an entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .dn import DN
from .result import LdapError, ResultCode


def _norm_value(value: str) -> str:
    """caseIgnoreMatch normalization: fold case, squash internal space."""
    return " ".join(value.lower().split())


class ModOp(enum.Enum):
    ADD = "add"
    DELETE = "delete"
    REPLACE = "replace"


@dataclass(frozen=True)
class Modification:
    """One component of a Modify operation."""

    op: ModOp
    attribute: str
    values: tuple[str, ...] = ()

    @classmethod
    def add(cls, attribute: str, *values: str) -> "Modification":
        return cls(ModOp.ADD, attribute, tuple(values))

    @classmethod
    def delete(cls, attribute: str, *values: str) -> "Modification":
        return cls(ModOp.DELETE, attribute, tuple(values))

    @classmethod
    def replace(cls, attribute: str, *values: str) -> "Modification":
        return cls(ModOp.REPLACE, attribute, tuple(values))


class Attributes:
    """An immutable, case-insensitive mapping from attribute name to a
    tuple of values.

    Values keep insertion order (deterministic LDIF output) but compare as
    sets under caseIgnore matching, which is what real directory servers do
    for directoryString syntax.  :meth:`modified` is the only way to get a
    changed collection, and it returns a new one that shares the value
    tuples of every attribute it leaves alone.
    """

    __slots__ = ("_data", "_names")

    def __init__(self, initial: Mapping[str, Iterable[str] | str] | None = None):
        self._data: dict[str, tuple[str, ...]] = {}
        self._names: dict[str, str] = {}  # lower-case -> original spelling
        for name, values in (initial or {}).items():
            self._set(name, values)

    # -- building (only while nobody else holds the collection) ------------

    def _set(self, name: str, values: Iterable[str] | str) -> None:
        """Replace all values of *name*; no values drops the attribute."""
        values = (values,) if isinstance(values, str) else tuple(map(str, values))
        key = name.lower()
        if not values:
            self._data.pop(key, None)
            self._names.pop(key, None)
            return
        self._data[key] = values
        self._names.setdefault(key, name)

    def _add(self, name: str, values: tuple[str, ...]) -> None:
        """Add values, rejecting duplicates like a real server would."""
        current = self._data.get(name.lower(), ())
        existing = {_norm_value(v) for v in current}
        for value in map(str, values):
            if _norm_value(value) in existing:
                raise LdapError(
                    ResultCode.ATTRIBUTE_OR_VALUE_EXISTS,
                    f"attribute {name} already has value {value!r}",
                )
            existing.add(_norm_value(value))
        self._set(name, current + values)

    def _delete(self, name: str, values: tuple[str, ...]) -> None:
        """Delete specific values, or the whole attribute when *values* is empty."""
        current = self._data.get(name.lower())
        if current is None:
            raise LdapError(
                ResultCode.UNDEFINED_ATTRIBUTE_TYPE, f"no such attribute: {name}"
            )
        remaining = list(current) if values else []
        for value in values:
            target = _norm_value(str(value))
            for i, have in enumerate(remaining):
                if _norm_value(have) == target:
                    del remaining[i]
                    break
            else:
                raise LdapError(
                    ResultCode.UNDEFINED_ATTRIBUTE_TYPE,
                    f"attribute {name} has no value {value!r}",
                )
        self._set(name, remaining)

    def modified(self, modifications: Iterable[Modification]) -> "Attributes":
        """A new collection with *modifications* applied in order.

        LDAP Modify semantics: ADD rejects a value already present
        (ATTRIBUTE_OR_VALUE_EXISTS); DELETE with no values drops the
        attribute, and DELETE of an absent attribute or value raises
        UNDEFINED_ATTRIBUTE_TYPE; REPLACE with no values drops the
        attribute.  Emptied attributes disappear.  ``self`` is unchanged,
        also when a modification raises."""
        result = Attributes()
        result._data = dict(self._data)
        result._names = dict(self._names)
        for mod in modifications:
            if mod.op is ModOp.ADD:
                result._add(mod.attribute, mod.values)
            elif mod.op is ModOp.DELETE:
                result._delete(mod.attribute, mod.values)
            elif mod.op is ModOp.REPLACE:
                result._set(mod.attribute, mod.values)
            else:  # pragma: no cover - enum is closed
                raise LdapError(ResultCode.PROTOCOL_ERROR, f"bad mod op {mod.op}")
        return result

    def select(self, names: Iterable[str]) -> "Attributes":
        """The named attributes only, sharing their value tuples."""
        wanted = {name.lower() for name in names}
        result = Attributes()
        result._data = {k: v for k, v in self._data.items() if k in wanted}
        result._names = {k: self._names[k] for k in result._data}
        return result

    # -- access -----------------------------------------------------------

    def get(self, name: str) -> tuple[str, ...]:
        return self._data.get(name.lower(), ())

    def first(self, name: str, default: str | None = None) -> str | None:
        values = self._data.get(name.lower())
        return values[0] if values else default

    def has(self, name: str) -> bool:
        return name.lower() in self._data

    def has_value(self, name: str, value: str) -> bool:
        target = _norm_value(value)
        return any(
            _norm_value(v) == target for v in self._data.get(name.lower(), ())
        )

    def names(self) -> list[str]:
        return [self._names[k] for k in self._data]

    def items(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        for key, values in self._data.items():
            yield self._names[key], values

    def to_dict(self) -> dict[str, list[str]]:
        return {self._names[k]: list(v) for k, v in self._data.items()}

    def images(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """The collection as two fresh dicts over the same value lists:
        first-writer spelling → values, and lower-cased name → values.
        No name is case-folded: both forms are what the collection
        stores.  The lists are new, but each is shared by both dicts."""
        names = self._names
        spelled: dict[str, list[str]] = {}
        lowered: dict[str, list[str]] = {}
        for key, values in self._data.items():
            spelled[names[key]] = lowered[key] = list(values)
        return spelled, lowered

    def spelling(self, name: str) -> str | None:
        """The stored spelling of attribute *name* (None when absent)."""
        return self._names.get(name.lower())

    def normalized(self) -> dict[str, frozenset[str]]:
        """Comparison form: lower-case names to sets of normalized values."""
        return {
            key: frozenset(_norm_value(v) for v in values)
            for key, values in self._data.items()
        }

    def __contains__(self, name: str) -> bool:
        return self.has(name)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Attributes) and self.normalized() == other.normalized()

    def __repr__(self) -> str:
        return f"Attributes({self.to_dict()!r})"


class Entry:
    """An immutable directory entry: a DN plus its attributes.

    The constructor shares an :class:`Attributes` it is given and builds
    one from any other mapping.  Assigning to ``dn`` or ``attributes``
    raises :class:`AttributeError`; a changed entry is a new entry.
    """

    __slots__ = ("dn", "attributes")

    def __init__(self, dn: DN | str, attributes: Mapping | Attributes | None = None):
        if isinstance(dn, str):
            dn = DN.parse(dn)
        if not isinstance(attributes, Attributes):
            attributes = Attributes(attributes)
        object.__setattr__(self, "dn", dn)
        object.__setattr__(self, "attributes", attributes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Entry is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Entry is immutable: cannot delete {name!r}")

    @property
    def object_classes(self) -> tuple[str, ...]:
        return self.attributes.get("objectClass")

    def get(self, name: str) -> tuple[str, ...]:
        return self.attributes.get(name)

    def first(self, name: str, default: str | None = None) -> str | None:
        return self.attributes.first(name, default)

    def has(self, name: str) -> bool:
        return self.attributes.has(name)

    def rdn_consistent(self) -> bool:
        """True when every AVA of the RDN appears among the attributes."""
        if self.dn.is_root():
            return True
        return all(
            self.attributes.has_value(attr, value)
            for attr, value in self.dn.rdn.items()
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Entry)
            and self.dn == other.dn
            and self.attributes == other.attributes
        )

    def __repr__(self) -> str:
        return f"Entry({str(self.dn)!r}, {self.attributes.to_dict()!r})"
