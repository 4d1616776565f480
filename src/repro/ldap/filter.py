"""LDAP search filters (RFC 2254 string representation).

Supports the full grammar used in practice::

    (&(objectClass=person)(|(cn=John*)(sn=Doe))(!(ou=void)))
    (telephoneNumber=*)            presence
    (cn=*oh*do*)                   substrings
    (extension>=4000)(extension<=4999)   ordering (numeric when possible)
    (cn~=jon doe)                  approximate (we use a loose normalization)

Matching follows caseIgnore semantics, consistent with
:mod:`repro.ldap.entry`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from .entry import Entry, _norm_value
from .result import LdapError, ResultCode


class FilterSyntaxError(LdapError):
    def __init__(self, message: str):
        super().__init__(ResultCode.PROTOCOL_ERROR, f"bad search filter: {message}")


def _derived():
    """A field a node computes once from its operands at construction:
    out of ``__init__``, equality, hashing and ``repr``."""
    return field(init=False, compare=False, repr=False)


#: Sets a derived field on a frozen node.
_set = object.__setattr__


class Filter:
    """Base class for compiled filters."""

    def matches(self, entry: Entry) -> bool:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class And(Filter):
    parts: tuple[Filter, ...]

    def matches(self, entry: Entry) -> bool:
        return all(p.matches(entry) for p in self.parts)

    def __str__(self) -> str:
        return "(&" + "".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Filter):
    parts: tuple[Filter, ...]

    def matches(self, entry: Entry) -> bool:
        return any(p.matches(entry) for p in self.parts)

    def __str__(self) -> str:
        return "(|" + "".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Not(Filter):
    part: Filter

    def matches(self, entry: Entry) -> bool:
        return not self.part.matches(entry)

    def __str__(self) -> str:
        return f"(!{self.part})"


@dataclass(frozen=True)
class Present(Filter):
    attribute: str
    #: The lower-cased attribute name.
    key: str = _derived()

    def __post_init__(self) -> None:
        _set(self, "key", self.attribute.lower())

    def matches(self, entry: Entry) -> bool:
        return self.key in entry.attributes.lowered()

    def __str__(self) -> str:
        return f"({self.attribute}=*)"


@dataclass(frozen=True)
class Equality(Filter):
    attribute: str
    value: str
    #: The lower-cased attribute name and the caseIgnore form of the
    #: value: what an equality index is keyed by.
    key: str = _derived()
    norm: str = _derived()

    def __post_init__(self) -> None:
        _set(self, "key", self.attribute.lower())
        _set(self, "norm", _norm_value(self.value))

    def matches(self, entry: Entry) -> bool:
        norm = self.norm
        return any(
            _norm_value(v) == norm
            for v in entry.attributes.lowered().get(self.key, ())
        )

    def __str__(self) -> str:
        return f"({self.attribute}={_escape(self.value)})"


@dataclass(frozen=True)
class Substrings(Filter):
    attribute: str
    initial: str | None
    any_parts: tuple[str, ...]
    final: str | None
    key: str = _derived()
    pattern: re.Pattern = _derived()

    def __post_init__(self) -> None:
        prefix = re.escape(_norm_value(self.initial)) if self.initial else ""
        suffix = re.escape(_norm_value(self.final)) if self.final else ""
        if self.any_parts:
            body = ".*".join(re.escape(_norm_value(p)) for p in self.any_parts)
            middle = ".*" + body + ".*"
        else:
            middle = ".*"
        _set(self, "key", self.attribute.lower())
        _set(self, "pattern", re.compile("^" + prefix + middle + suffix + "$"))

    def matches(self, entry: Entry) -> bool:
        match = self.pattern.match
        return any(
            match(_norm_value(v))
            for v in entry.attributes.lowered().get(self.key, ())
        )

    def __str__(self) -> str:
        parts = [self.initial or ""] + list(self.any_parts) + [self.final or ""]
        return f"({self.attribute}=" + "*".join(_escape(p) for p in parts) + ")"


def _order_key(value: str):
    """Order numerically when both operands look numeric, else textually."""
    try:
        return (0, float(value), "")
    except ValueError:
        return (1, 0.0, _norm_value(value))


@dataclass(frozen=True)
class GreaterOrEqual(Filter):
    attribute: str
    value: str
    key: str = _derived()
    bound: tuple = _derived()

    def __post_init__(self) -> None:
        _set(self, "key", self.attribute.lower())
        _set(self, "bound", _order_key(self.value))

    def matches(self, entry: Entry) -> bool:
        bound = self.bound
        return any(
            _order_key(v) >= bound
            for v in entry.attributes.lowered().get(self.key, ())
        )

    def __str__(self) -> str:
        return f"({self.attribute}>={_escape(self.value)})"


@dataclass(frozen=True)
class LessOrEqual(Filter):
    attribute: str
    value: str
    key: str = _derived()
    bound: tuple = _derived()

    def __post_init__(self) -> None:
        _set(self, "key", self.attribute.lower())
        _set(self, "bound", _order_key(self.value))

    def matches(self, entry: Entry) -> bool:
        bound = self.bound
        return any(
            _order_key(v) <= bound
            for v in entry.attributes.lowered().get(self.key, ())
        )

    def __str__(self) -> str:
        return f"({self.attribute}<={_escape(self.value)})"


@dataclass(frozen=True)
class Approx(Filter):
    """Approximate match: compare with all whitespace and hyphens removed."""

    attribute: str
    value: str
    key: str = _derived()
    target: str = _derived()

    def __post_init__(self) -> None:
        _set(self, "key", self.attribute.lower())
        _set(self, "target", self._squash(self.value))

    @staticmethod
    def _squash(value: str) -> str:
        return re.sub(r"[\s\-]+", "", value.lower())

    def matches(self, entry: Entry) -> bool:
        target = self.target
        return any(
            self._squash(v) == target
            for v in entry.attributes.lowered().get(self.key, ())
        )

    def __str__(self) -> str:
        return f"({self.attribute}~={_escape(self.value)})"


_ESCAPE_RE = re.compile(r"\\([0-9a-fA-F]{2})")


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(lambda m: chr(int(m.group(1), 16)), text)


def _escape(text: str) -> str:
    out = []
    for ch in text:
        if ch in "*()\\\0":
            out.append("\\%02x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


#: A lone ``(attr=value)`` or ``(attr=*)`` whose value holds no escape, no
#: wildcard and no parenthesis, and whose attribute does not open with an
#: operator: :func:`parse_filter` builds its node without :class:`_Parser`,
#: which would build the same one.
_ONE_ITEM = re.compile(r"\(([^&|!=<>~()][^=<>~()]*)=([^()*\\]*|\*)\)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FilterSyntaxError:
        return FilterSyntaxError(f"{message} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        if self.pos >= len(self.text):
            raise self.error("unexpected end of filter")
        return self.text[self.pos]

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Filter:
        node = self.parse_filter()
        if self.pos != len(self.text):
            raise self.error("trailing characters after filter")
        return node

    def parse_filter(self) -> Filter:
        self.expect("(")
        ch = self.peek()
        if ch == "&":
            self.pos += 1
            node: Filter = And(tuple(self.parse_list()))
        elif ch == "|":
            self.pos += 1
            node = Or(tuple(self.parse_list()))
        elif ch == "!":
            self.pos += 1
            node = Not(self.parse_filter())
        else:
            node = self.parse_item()
        self.expect(")")
        return node

    def parse_list(self) -> list[Filter]:
        parts = []
        while self.peek() == "(":
            parts.append(self.parse_filter())
        if not parts:
            raise self.error("empty filter list")
        return parts

    def parse_item(self) -> Filter:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "=<>~()":
            self.pos += 1
        attribute = self.text[start:self.pos].strip()
        if not attribute:
            raise self.error("missing attribute name")
        op = self.peek()
        if op in "<>~":
            self.pos += 1
            self.expect("=")
            value = self._read_value()
            if op == ">":
                return GreaterOrEqual(attribute, _unescape(value))
            if op == "<":
                return LessOrEqual(attribute, _unescape(value))
            return Approx(attribute, _unescape(value))
        self.expect("=")
        value = self._read_value()
        if value == "*":
            return Present(attribute)
        if "*" in value:
            raw_parts = value.split("*")
            initial = _unescape(raw_parts[0]) or None
            final = _unescape(raw_parts[-1]) or None
            middle = tuple(_unescape(p) for p in raw_parts[1:-1] if p)
            return Substrings(attribute, initial, middle, final)
        return Equality(attribute, _unescape(value))

    def _read_value(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != ")":
            if self.text[self.pos] == "(":
                raise self.error("unescaped '(' in value")
            self.pos += 1
        return self.text[start:self.pos]


def parse_filter(text: str | Filter) -> Filter:
    """Parse an RFC 2254 filter string into a :class:`Filter` tree."""
    if isinstance(text, Filter):
        return text
    text = text.strip()
    if not text:
        raise FilterSyntaxError("empty filter")
    if not text.startswith("("):
        # Tolerate the common shorthand "cn=foo" without parens.
        text = f"({text})"
    item = _ONE_ITEM.fullmatch(text)
    if item is not None:
        attribute = item.group(1).strip()
        if attribute:
            value = item.group(2)
            return Present(attribute) if value == "*" else Equality(attribute, value)
    return _Parser(text).parse()


def matches(filter_text: str | Filter, entry: Entry) -> bool:
    """One-shot convenience wrapper around :func:`parse_filter`."""
    return parse_filter(filter_text).matches(entry)
