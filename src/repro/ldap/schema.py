"""LDAP schema: attribute types and object classes.

Models the X.500/LDAP schema machinery that shaped MetaComm's integrated
schema design (paper section 5.2):

* object classes are STRUCTURAL, AUXILIARY or ABSTRACT;
* auxiliary classes may not declare mandatory (MUST) attributes — this is
  the real-LDAP limitation the paper calls out, and we enforce it at class
  definition time;
* an entry must carry exactly one structural class chain plus any number of
  auxiliary classes, all MUSTs present, and every attribute allowed by some
  class;
* attribute types may be single-valued.

Typing is intentionally weak (everything is a directory string); syntax
checking is limited to single-value enforcement plus optional value
validators, mirroring the "very weak typing" of section 5.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from .entry import Entry
from .result import LdapError, ResultCode, SchemaViolationError


#: Distinct objectClass sets one schema remembers the resolution of.
CLASS_SET_MEMO_SIZE = 256


class ClassKind(enum.Enum):
    STRUCTURAL = "structural"
    AUXILIARY = "auxiliary"
    ABSTRACT = "abstract"


@dataclass(frozen=True)
class AttributeType:
    """Definition of one attribute type.

    ``validator`` (when given) receives each value and returns an error
    string or ``None`` — the hook used to model "intra-entry constraints"
    the paper wishes LDAP had (section 5.3 suggests them as an improvement).
    """

    name: str
    aliases: tuple[str, ...] = ()
    single_value: bool = False
    description: str = ""
    validator: Callable[[str], str | None] | None = None

    def all_names(self) -> tuple[str, ...]:
        return (self.name,) + self.aliases


@dataclass(frozen=True)
class ObjectClass:
    """Definition of one object class."""

    name: str
    kind: ClassKind = ClassKind.STRUCTURAL
    sup: str | None = None
    must: tuple[str, ...] = ()
    may: tuple[str, ...] = ()
    description: str = ""


class Schema:
    """A registry of attribute types and object classes with entry checking."""

    def __init__(self, strict: bool = True):
        self._attributes: dict[str, AttributeType] = {}
        self._classes: dict[str, ObjectClass] = {}
        #: Intra-entry constraints (section 5.3: "Improving typing with
        #: intra-entry constraints would not harm scalability or
        #: flexibility and would do much to maintain data quality").
        self._constraints: dict[str, Callable[[Entry], str | None]] = {}
        #: When False, unknown attributes/classes are tolerated — the mode
        #: an off-the-shelf browser effectively sees (paper section 5.2).
        self.strict = strict
        #: (lower-cased objectClass tuple, strict) → (has a structural
        #: class, MUST names, allowed names), resolved once per class set;
        #: every definition clears it, and so does outgrowing
        #: :data:`CLASS_SET_MEMO_SIZE`.
        self._class_sets: dict[
            tuple[tuple[str, ...], bool], tuple[bool, frozenset, frozenset]
        ] = {}

    # -- definition -------------------------------------------------------

    def define_attribute(self, attribute: AttributeType) -> AttributeType:
        for name in attribute.all_names():
            key = name.lower()
            if key in self._attributes:
                raise ValueError(f"attribute type {name!r} already defined")
            self._attributes[key] = attribute
        self._class_sets.clear()
        return attribute

    def define_class(self, object_class: ObjectClass) -> ObjectClass:
        key = object_class.name.lower()
        if key in self._classes:
            raise ValueError(f"object class {object_class.name!r} already defined")
        if object_class.kind is ClassKind.AUXILIARY and object_class.must:
            # The limitation MetaComm section 5.2 had to design around.
            raise ValueError(
                f"auxiliary class {object_class.name!r} may not declare "
                f"mandatory attributes: {', '.join(object_class.must)}"
            )
        if object_class.sup is not None and object_class.sup.lower() not in self._classes:
            raise ValueError(
                f"superclass {object_class.sup!r} of {object_class.name!r} not defined"
            )
        for attr in object_class.must + object_class.may:
            if attr.lower() not in self._attributes:
                raise ValueError(
                    f"class {object_class.name!r} references undefined "
                    f"attribute {attr!r}"
                )
        self._classes[key] = object_class
        self._class_sets.clear()
        return object_class

    def define_entry_constraint(
        self, name: str, constraint: Callable[[Entry], str | None]
    ) -> None:
        """Register a cross-attribute constraint evaluated on every entry.

        The callable returns an error string for violating entries or
        ``None``.  This is the section-5.3 extension: constraints that see
        the whole entry (e.g. "a definityUser with an extension must have a
        matching telephoneNumber") without requiring transactions."""
        if name in self._constraints:
            raise ValueError(f"entry constraint {name!r} already defined")
        self._constraints[name] = constraint

    def remove_entry_constraint(self, name: str) -> None:
        del self._constraints[name]

    # -- lookup -----------------------------------------------------------

    def attribute(self, name: str) -> AttributeType | None:
        return self._attributes.get(name.lower())

    def object_class(self, name: str) -> ObjectClass | None:
        return self._classes.get(name.lower())

    def attribute_names(self) -> list[str]:
        return sorted({a.name for a in self._attributes.values()})

    def superclass_chain(self, name: str) -> list[ObjectClass]:
        """The class and its transitive superclasses, nearest first."""
        chain: list[ObjectClass] = []
        seen: set[str] = set()
        current: str | None = name
        while current is not None:
            key = current.lower()
            if key in seen:
                raise LdapError(
                    ResultCode.OTHER, f"object class cycle at {current!r}"
                )
            seen.add(key)
            cls = self._classes.get(key)
            if cls is None:
                break
            chain.append(cls)
            current = cls.sup
        return chain

    # -- entry validation ---------------------------------------------------

    def _resolve_classes(
        self, entry: Entry, classes: tuple[str, ...]
    ) -> tuple[bool, frozenset, frozenset]:
        """Walk *classes*' superclass chains: whether one is structural,
        and the MUST and allowed attribute names (lower case)."""
        resolved: list[ObjectClass] = []
        for name in classes:
            cls = self.object_class(name)
            if cls is None:
                if self.strict:
                    raise SchemaViolationError(
                        f"{entry.dn}: unknown object class {name!r}"
                    )
                continue
            for member in self.superclass_chain(name):
                if member not in resolved:
                    resolved.append(member)

        must: set[str] = set()
        allowed: set[str] = {"objectclass"}
        for cls in resolved:
            must.update(a.lower() for a in cls.must)
            allowed.update(a.lower() for a in cls.must)
            allowed.update(a.lower() for a in cls.may)
        structural = any(c.kind is ClassKind.STRUCTURAL for c in resolved)
        return structural, frozenset(must), frozenset(allowed)

    def check_entry(self, entry: Entry) -> None:
        """Raise :class:`SchemaViolationError` when *entry* is malformed."""
        classes = entry.object_classes
        if not classes:
            raise SchemaViolationError(f"{entry.dn}: entry has no objectClass")

        key = (tuple(name.lower() for name in classes), self.strict)
        class_sets = self._class_sets.get(key)
        if class_sets is None:
            class_sets = self._resolve_classes(entry, classes)
            if len(self._class_sets) >= CLASS_SET_MEMO_SIZE:
                self._class_sets.clear()
            self._class_sets[key] = class_sets
        structural, must, allowed = class_sets
        if self.strict and not structural:
            raise SchemaViolationError(
                f"{entry.dn}: entry has no structural object class"
            )

        present = {name.lower() for name in entry.attributes.names()}
        missing = must - present
        if missing:
            raise SchemaViolationError(
                f"{entry.dn}: missing mandatory attributes: {', '.join(sorted(missing))}"
            )

        if self.strict:
            extra = present - allowed
            if extra:
                raise SchemaViolationError(
                    f"{entry.dn}: attributes not allowed by object classes: "
                    f"{', '.join(sorted(extra))}"
                )

        for name, values in entry.attributes.items():
            attr_type = self.attribute(name)
            if attr_type is None:
                if self.strict and name.lower() != "objectclass":
                    raise LdapError(
                        ResultCode.UNDEFINED_ATTRIBUTE_TYPE,
                        f"{entry.dn}: undefined attribute type {name!r}",
                    )
                continue
            if attr_type.single_value and len(values) > 1:
                raise LdapError(
                    ResultCode.CONSTRAINT_VIOLATION,
                    f"{entry.dn}: attribute {name} is single-valued",
                )
            if attr_type.validator is not None:
                for value in values:
                    problem = attr_type.validator(value)
                    if problem:
                        raise LdapError(
                            ResultCode.INVALID_ATTRIBUTE_SYNTAX,
                            f"{entry.dn}: {name}={value!r}: {problem}",
                        )

        for name, constraint in self._constraints.items():
            problem = constraint(entry)
            if problem:
                raise LdapError(
                    ResultCode.CONSTRAINT_VIOLATION,
                    f"{entry.dn}: constraint {name!r}: {problem}",
                )


def define_attributes(schema: Schema, names: Iterable[str], **kwargs) -> None:
    """Convenience: define a batch of plain directory-string attributes."""
    for name in names:
        schema.define_attribute(AttributeType(name=name, **kwargs))
