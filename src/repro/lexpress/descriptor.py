"""lexpress update descriptors and translated target updates.

"When a filter receives a change notification from its associated
repository, it creates a lexpress update descriptor of the change."
(paper section 4.1.)  The descriptor is the canonical, repository-neutral
representation of one update: operation kind, old and new attribute
images, which attributes the client set explicitly, and where the update
originally entered the system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence


class UpdateOp(enum.Enum):
    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"


def normalize_attrs(
    attrs: Mapping[str, Sequence[str] | str] | None,
) -> dict[str, list[str]] | None:
    """Canonical attribute dict: original-ish names, list-of-string values."""
    if attrs is None:
        return None
    out: dict[str, list[str]] = {}
    for name, values in attrs.items():
        if isinstance(values, str):
            values = [values]
        out[name] = [str(v) for v in values]
    return out


def _by_lower(attrs: Mapping[str, list[str]] | None) -> dict[str, list[str]]:
    """Lower-cased name → values; the first spelling of a name wins."""
    out: dict[str, list[str]] = {}
    for key, values in (attrs or {}).items():
        out.setdefault(key.lower(), values)
    return out


#: An image keyed by lower-cased attribute name.
LowerView = dict[str, list[str]]


@dataclass(frozen=True)
class UpdateDescriptor:
    """One update in canonical form.

    ``old``/``new`` are full attribute images before/after the update
    (``None`` for the missing side of adds and deletes).  ``explicit`` is
    the set of attribute names (lower-case) the client set directly — the
    transitive-closure engine must never overwrite those (section 4.2).
    ``origin`` names the repository where the update first entered the
    system; the Originator machinery (section 5.4) compares it against
    update targets to emit conditional operations.

    The constructor normalizes whatever it is given (a string value
    becomes a one-element list, every value a ``str``).
    :meth:`from_images` takes images already in that form and keeps
    them as they are — the update path builds each image once, at
    intake, and every later stage reads the same dicts and lists.  A
    descriptor is immutable and so are its images: no consumer may
    change a dict or list it reads from one.  :meth:`lowered` is the
    lower-keyed view of both images, built once per descriptor.
    """

    op: UpdateOp
    source: str
    key: str | None
    old: dict[str, list[str]] | None = None
    new: dict[str, list[str]] | None = None
    explicit: frozenset[str] = frozenset()
    origin: str | None = None
    #: Memo of :meth:`changed_attributes` (descriptors are immutable).
    _changed: frozenset[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memo of :meth:`lowered`.
    _lowered: tuple[LowerView | None, LowerView | None] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "old", normalize_attrs(self.old))
        object.__setattr__(self, "new", normalize_attrs(self.new))
        object.__setattr__(
            self, "explicit", frozenset(a.lower() for a in self.explicit)
        )
        if self.origin is None:
            object.__setattr__(self, "origin", self.source)
        self._check()

    @classmethod
    def from_images(
        cls,
        op: UpdateOp,
        source: str,
        key: str | None,
        old: dict[str, list[str]] | None,
        new: dict[str, list[str]] | None,
        explicit: frozenset[str],
        origin: str,
        lowered: tuple[LowerView | None, LowerView | None] | None = None,
    ) -> "UpdateDescriptor":
        """A descriptor over images already in canonical form (name →
        list of ``str``), kept as given: nothing is copied or re-keyed.
        *explicit* holds lower-case names.  *lowered*, when the caller
        built it with the images, seeds the :meth:`lowered` memo."""
        self = object.__new__(cls)
        put = object.__setattr__
        put(self, "op", op)
        put(self, "source", source)
        put(self, "key", key)
        put(self, "old", old)
        put(self, "new", new)
        put(self, "explicit", explicit)
        put(self, "origin", origin)
        put(self, "_changed", None)
        put(self, "_lowered", lowered)
        self._check()
        return self

    def _check(self) -> None:
        if self.op is UpdateOp.ADD and self.new is None:
            raise ValueError("ADD descriptor needs a new image")
        if self.op is UpdateOp.DELETE and self.old is None:
            raise ValueError("DELETE descriptor needs an old image")
        if self.op is UpdateOp.MODIFY and (self.old is None or self.new is None):
            raise ValueError("MODIFY descriptor needs both images")

    # -- derived ------------------------------------------------------------

    def lowered(self) -> tuple[LowerView | None, LowerView | None]:
        """``(old, new)`` keyed by lower-cased attribute name, sharing the
        images' value lists; the first spelling of a name wins (built once
        per descriptor)."""
        views = self._lowered
        if views is None:
            views = (
                _by_lower(self.old) if self.old is not None else None,
                _by_lower(self.new) if self.new is not None else None,
            )
            object.__setattr__(self, "_lowered", views)
        return views

    def changed_attributes(self) -> frozenset[str]:
        """Lower-case names of attributes whose values differ old → new
        (computed once per descriptor)."""
        changed = self._changed
        if changed is None:
            old, new = self.lowered()
            changed = changed_names(old or {}, new or {})
            object.__setattr__(self, "_changed", changed)
        return changed

    def get_new(self, name: str) -> list[str]:
        return list((self.lowered()[1] or {}).get(name.lower(), ()))

    def get_old(self, name: str) -> list[str]:
        return list((self.lowered()[0] or {}).get(name.lower(), ()))

    def with_new_attribute(self, name: str, values: Sequence[str]) -> "UpdateDescriptor":
        """A copy with one attribute of the new image replaced/added —
        used to fold device-generated information back in (section 5.5)."""
        new = dict(self.new or {})
        for key in list(new):
            if key.lower() == name.lower():
                del new[key]
        new[name] = [str(v) for v in values]
        return replace(self, new=new)


def changed_names(
    old: Mapping[str, list[str]], new: Mapping[str, list[str]]
) -> frozenset[str]:
    """Lower-case names whose values differ between two lower-keyed views."""
    return frozenset(
        name
        for name in old.keys() | new.keys()
        if old.get(name, []) != new.get(name, [])
    )


class TargetAction(enum.Enum):
    """What a translated update does at the target repository.

    The four cases are the partitioning matrix of section 4.2: whether the
    old and new attribute images satisfy the target's constraints decides
    between add, modify, delete and skip.
    """

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"
    SKIP = "skip"


@dataclass(frozen=True)
class TargetUpdate:
    """The result of translating a descriptor toward one target repository."""

    action: TargetAction
    target: str
    #: Target-schema key value after the update (None for deletes).
    key: str | None
    #: Target-schema key value before the update (differs from ``key`` on renames).
    old_key: str | None
    #: Name of the target-schema key attribute (from the mapping's `key` decl).
    key_attribute: str | None = None
    #: Full new attribute image in the target schema ({} for deletes).
    attributes: dict[str, list[str]] = field(default_factory=dict)
    #: Full old attribute image in the target schema ({} for adds).
    old_attributes: dict[str, list[str]] = field(default_factory=dict)
    #: For modifies: only the attributes whose values changed.
    changed: dict[str, list[str]] = field(default_factory=dict)
    #: For modifies: attributes that were set before and are now unset.
    removed: tuple[str, ...] = ()
    #: Section 5.4: true when the update is being sent back to the
    #: repository it originated from — the filter must reapply it with
    #: conditional semantics (add → conditional modify, etc.).
    conditional: bool = False
    #: Name of the mapping that produced this update (diagnostics).
    mapping: str = ""
